# CTest driver for the examples.cli_rejects_* cases: runs carbonedge_cli with
# one malformed count and requires exit status 1 with an "error:" message
# naming the bad argument (no wrap-around run, no silent truncation).
#
# Invoked as: cmake -DCLI=<binary> "-DARGS=<space-separated argv>"
#                   -DBAD=<the rejected argument> -P cli_reject.cmake
separate_arguments(args UNIX_COMMAND "${ARGS}")
execute_process(
  COMMAND "${CLI}" ${args}
  OUTPUT_VARIABLE output
  ERROR_VARIABLE output
  RESULT_VARIABLE status
  TIMEOUT 30)
string(FIND "${output}" "error: " error_at)
string(FIND "${output}" "${BAD}" bad_at)
if(NOT status EQUAL 1 OR error_at EQUAL -1 OR bad_at EQUAL -1)
  message(FATAL_ERROR "carbonedge_cli ${ARGS}: expected exit 1 with an error naming "
                      "'${BAD}', got (${status}):\n${output}")
endif()

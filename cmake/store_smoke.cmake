# CTest driver for examples.cli_store_smoke: exercises the carbonedge_cli
# store subcommands end to end against a scratch store directory.
#
#   warm   (cold)  -> synthesizes the region's traces into the store
#   warm   (again) -> must load everything from disk ("0 traces synthesized")
#   ls             -> every trace entry holds a year of hourly intensities
#                     and at most one average mix: <= 8 x 8760 + 1024 bytes
#   verify         -> every entry checksums clean
#
# Invoked as: cmake -DCLI=<binary> -DSTORE_DIR=<dir> -P store_smoke.cmake
file(REMOVE_RECURSE "${STORE_DIR}")

foreach(attempt cold warm)
  execute_process(
    COMMAND "${CLI}" store --dir "${STORE_DIR}" warm florida
    OUTPUT_VARIABLE output
    ERROR_VARIABLE output
    RESULT_VARIABLE status)
  if(NOT status EQUAL 0)
    message(FATAL_ERROR "store warm (${attempt}) failed (${status}):\n${output}")
  endif()
  if(attempt STREQUAL "warm" AND NOT output MATCHES "0 traces synthesized")
    message(FATAL_ERROR "warm rerun re-synthesized traces:\n${output}")
  endif()
endforeach()

execute_process(
  COMMAND "${CLI}" store --dir "${STORE_DIR}" verify
  OUTPUT_VARIABLE output
  ERROR_VARIABLE output
  RESULT_VARIABLE status)
if(NOT status EQUAL 0 OR NOT output MATCHES "0 corrupt")
  message(FATAL_ERROR "store verify failed (${status}):\n${output}")
endif()

# A trace entry is the intensity column plus a small header and at most one
# 8-double average mix; any per-hour payload beside the intensities would
# at least double it.
execute_process(
  COMMAND "${CLI}" store --dir "${STORE_DIR}" ls
  OUTPUT_VARIABLE output
  ERROR_VARIABLE output
  RESULT_VARIABLE status)
if(NOT status EQUAL 0)
  message(FATAL_ERROR "store ls failed (${status}):\n${output}")
endif()
math(EXPR max_trace_bytes "8 * 8760 + 1024")
string(REGEX MATCHALL "\\| trace +\\| +[0-9a-f]+ \\| +[0-9]+ \\|" trace_rows "${output}")
list(LENGTH trace_rows trace_count)
if(trace_count EQUAL 0)
  message(FATAL_ERROR "store ls listed no trace entries:\n${output}")
endif()
foreach(row IN LISTS trace_rows)
  string(REGEX REPLACE ".*\\| +([0-9]+) \\|$" "\\1" bytes "${row}")
  if(bytes GREATER max_trace_bytes)
    message(FATAL_ERROR "trace entry exceeds ${max_trace_bytes} bytes: ${row}")
  endif()
endforeach()

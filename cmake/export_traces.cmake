# CTest script for examples.cli_export_traces: `export-traces florida` must
# write the `zone,hour,intensity_g_kwh` header and then exactly one row per
# zone-hour (every zone from hour 0 to its last hour, values at no more than
# 4 decimals), and a path that cannot be written must exit 1 with an
# "error:" line.
#
# Invoked as: cmake -DCLI=<binary> -DOUT_DIR=<dir> -P export_traces.cmake
file(REMOVE_RECURSE "${OUT_DIR}")
file(MAKE_DIRECTORY "${OUT_DIR}")
set(csv "${OUT_DIR}/florida.csv")

execute_process(
  COMMAND "${CLI}" export-traces florida "${csv}"
  OUTPUT_VARIABLE output
  ERROR_VARIABLE output
  RESULT_VARIABLE status)
string(REGEX MATCH "wrote ([0-9]+) zone traces \\(([0-9]+) hours each\\)" _ "${output}")
if(NOT status EQUAL 0 OR NOT CMAKE_MATCH_2)
  message(FATAL_ERROR "export-traces florida failed (${status}):\n${output}")
endif()
set(zones ${CMAKE_MATCH_1})
set(hours ${CMAKE_MATCH_2})
if(NOT zones EQUAL 5 OR NOT hours EQUAL 8760)
  message(FATAL_ERROR "export-traces florida: expected 5 zones of 8760 hours, got ${zones} of "
                      "${hours}")
endif()

file(STRINGS "${csv}" lines)
list(GET lines 0 header)
if(NOT header STREQUAL "zone,hour,intensity_g_kwh")
  message(FATAL_ERROR "export-traces header is '${header}'")
endif()
list(LENGTH lines line_count)
math(EXPR expected_lines "${zones} * ${hours} + 1")
if(NOT line_count EQUAL expected_lines)
  message(FATAL_ERROR "export-traces wrote ${line_count} lines, expected ${expected_lines}")
endif()

# Every data row is zone,hour,value with at most 4 decimals.
file(STRINGS "${csv}" rows REGEX "^[^,]+,[0-9]+,[0-9]+(\\.[0-9]?[0-9]?[0-9]?[0-9])?$")
list(LENGTH rows row_count)
math(EXPR expected_rows "${zones} * ${hours}")
if(NOT row_count EQUAL expected_rows)
  message(FATAL_ERROR "export-traces: ${row_count} of ${expected_rows} rows are well-formed")
endif()

# One first hour and one last hour per zone, so no zone is cut short or
# written twice.
math(EXPR last_hour "${hours} - 1")
foreach(hour 0 ${last_hour})
  file(STRINGS "${csv}" hour_rows REGEX "^[^,]+,${hour},")
  list(LENGTH hour_rows hour_count)
  if(NOT hour_count EQUAL zones)
    message(FATAL_ERROR "export-traces: ${hour_count} rows for hour ${hour}, expected ${zones}")
  endif()
endforeach()

execute_process(
  COMMAND "${CLI}" export-traces florida "${OUT_DIR}/no-such-dir/florida.csv"
  OUTPUT_VARIABLE output
  ERROR_VARIABLE output
  RESULT_VARIABLE status)
string(FIND "${output}" "error: " error_at)
if(NOT status EQUAL 1 OR error_at EQUAL -1)
  message(FATAL_ERROR "export-traces to an unwritable path: expected exit 1 with an error, got "
                      "(${status}):\n${output}")
endif()

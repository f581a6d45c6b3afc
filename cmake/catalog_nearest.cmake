# CTest driver for examples.cli_catalog_nearest: builds the checked-in sample
# dump into a scratch store and checks `catalog nearest` answers, including a
# polar query and one hugging the antimeridian, then checks that a
# comment-only dump compiles to an empty catalog on which `nearest` exits 1.
#
# Invoked as: cmake -DCLI=<binary> -DSTORE_DIR=<dir> -P catalog_nearest.cmake
file(REMOVE_RECURSE "${STORE_DIR}")
file(MAKE_DIRECTORY "${STORE_DIR}")

# Runs `catalog build <tsv>`; stores the printed content key in `out_key`
# and the site count in `out_count`.
function(build_catalog tsv out_key out_count)
  execute_process(
    COMMAND "${CLI}" catalog --dir "${STORE_DIR}" build "${tsv}"
    OUTPUT_VARIABLE output
    ERROR_VARIABLE output
    RESULT_VARIABLE status)
  string(REGEX MATCH "compiled ([0-9]+) sites.*key ([0-9a-f]+)" _ "${output}")
  if(NOT status EQUAL 0 OR NOT CMAKE_MATCH_2)
    message(FATAL_ERROR "catalog build ${tsv} failed (${status}):\n${output}")
  endif()
  set(${out_count} ${CMAKE_MATCH_1} PARENT_SCOPE)
  set(${out_key} ${CMAKE_MATCH_2} PARENT_SCOPE)
endfunction()

build_catalog("${CMAKE_CURRENT_LIST_DIR}/../tests/data/sites_sample.tsv" sample_key sample_count)
if(NOT sample_count EQUAL 44)
  message(FATAL_ERROR "sites_sample.tsv compiled to ${sample_count} sites, expected 44")
endif()
foreach(expected
    "48.0;11.0;nearest to (48.0000, 11.0000): Munich, DE (45.8 km)"
    "89.9;10;nearest to (89.9000, 10.0000): Longyearbyen, NO (1298.5 km)"
    "-45;179.999;nearest to (-45.0000, 179.9990): Honolulu, US (7707.7 km)"
    "25.76;-80.19;nearest to (25.7600, -80.1900): Miami, US (0.3 km)")
  list(GET expected 0 lat)
  list(GET expected 1 lon)
  list(GET expected 2 line)
  execute_process(
    COMMAND "${CLI}" catalog --dir "${STORE_DIR}" nearest ${sample_key} ${lat} ${lon}
    OUTPUT_VARIABLE output
    ERROR_VARIABLE output
    RESULT_VARIABLE status)
  if(NOT status EQUAL 0 OR NOT output STREQUAL "${line}\n")
    message(FATAL_ERROR "catalog nearest ${lat} ${lon}: expected '${line}', got (${status}):\n"
                        "${output}")
  endif()
endforeach()

file(WRITE "${STORE_DIR}/empty.tsv" "# a dump with no site rows\n")
build_catalog("${STORE_DIR}/empty.tsv" empty_key empty_count)
if(NOT empty_count EQUAL 0)
  message(FATAL_ERROR "a comment-only dump compiled to ${empty_count} sites, expected 0")
endif()
execute_process(
  COMMAND "${CLI}" catalog --dir "${STORE_DIR}" nearest ${empty_key} 0 0
  OUTPUT_VARIABLE output
  ERROR_VARIABLE output
  RESULT_VARIABLE status)
if(NOT status EQUAL 1 OR NOT output MATCHES "catalog is empty")
  message(FATAL_ERROR "catalog nearest on an empty catalog: expected exit 1 with "
                      "'catalog is empty', got (${status}):\n${output}")
endif()

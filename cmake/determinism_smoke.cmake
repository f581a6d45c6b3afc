# Determinism gate: the same workload must emit byte-identical tables no
# matter how many worker lanes the process is given. Runs a multi-cell
# scenario sweep (cells share the lanes), a single-cell simulation and a
# serve replay (both serial end to end, so a difference there means
# something serial read the thread count) under CARBONEDGE_THREADS=1 and =4
# and fails on any byte difference. Invoked by CTest
# (examples.cli_determinism_smoke) and by the CI determinism-gate step.
#
#   cmake -DCLI=<carbonedge_cli> -DOUT_DIR=<scratch> -P determinism_smoke.cmake
#
# Each thread count's probes share their own store, CARBONEDGE_STORE_DIR=
# ${OUT_DIR}/store-t<N>, emptied here: both sides start equally cold
# whatever store the caller set, so the store tier is under the gate too
# and neither side replays what the other computed.
if(NOT DEFINED CLI OR NOT DEFINED OUT_DIR)
  message(FATAL_ERROR "usage: cmake -DCLI=<carbonedge_cli> -DOUT_DIR=<dir> -P determinism_smoke.cmake")
endif()

file(MAKE_DIRECTORY ${OUT_DIR})
file(REMOVE_RECURSE ${OUT_DIR}/store-t1 ${OUT_DIR}/store-t4)

# Runs PROBE_<probe> (its @THREADS@ replaced) under CARBONEDGE_THREADS=1 and
# =4, each with its own store, into ${OUT_DIR}/<probe>-t<N>.txt, and fails
# unless both runs exit 0 with byte-identical output.
function(run_probe probe)
  foreach(threads 1 4)
    string(REPLACE "@THREADS@" "${threads}" args "${PROBE_${probe}}")
    execute_process(
      # -E env: the worker budget under test reaches the probe process only.
      COMMAND ${CMAKE_COMMAND} -E env CARBONEDGE_THREADS=${threads}
              CARBONEDGE_STORE_DIR=${OUT_DIR}/store-t${threads} ${CLI} ${args}
      OUTPUT_FILE ${OUT_DIR}/${probe}-t${threads}.txt
      RESULT_VARIABLE status)
    if(NOT status EQUAL 0)
      message(FATAL_ERROR "determinism probe '${probe}' failed with CARBONEDGE_THREADS=${threads} (exit ${status})")
    endif()
  endforeach()
  execute_process(
    COMMAND ${CMAKE_COMMAND} -E compare_files
            ${OUT_DIR}/${probe}-t1.txt ${OUT_DIR}/${probe}-t4.txt
    RESULT_VARIABLE identical)
  if(NOT identical EQUAL 0)
    message(FATAL_ERROR "determinism gate: probe '${probe}' differs between "
                        "CARBONEDGE_THREADS=1 and =4 — compare ${OUT_DIR}/${probe}-t1.txt "
                        "against ${OUT_DIR}/${probe}-t4.txt")
  endif()
  message(STATUS "determinism gate: probe '${probe}' byte-identical across thread counts")
endfunction()

# (label, argument list) probes: a grid wider than the budget (cells share
# lanes) and a single big cell.
set(PROBE_sweep "sweep;florida;128")
# 40-site CDN region: its placement batches split into many components,
# which the single cell's solver solves one after another.
# --metrics= puts the obs registry under the gate too: the snapshot's
# deterministic view is compared separately below (the timing view is
# allowed — required, even — to differ).
set(PROBE_single "sweep;cdn_us;96;--single;--metrics=${OUT_DIR}/metrics-single-t@THREADS@.json")
# Streaming serving mode: event-driven replay with windowed telemetry and an
# EMA re-optimization trigger; --export=- puts the per-window CSV rows into
# the diffed output, so window aggregation is under the gate too, and
# --metrics-rows interleaves per-window deterministic-view snapshots into
# those diffed bytes. The intensity EMA crosses 230 g/kWh once in these 96
# epochs, so the event-driven re-optimization and its migrations run inside
# the gate; the check after the loop fails if no window fires.
set(PROBE_serve "serve;cdn_us;--replay;--epochs=96;--window-epochs=8;--ema-reopt=intensity:230:226;--export=-;--metrics-rows")

foreach(probe sweep single serve)
  run_probe(${probe})
endforeach()

# A serve probe that never re-optimizes leaves the migration path outside
# the gate: require an exported window row with reopt_fired = 1.
file(STRINGS ${OUT_DIR}/serve-t1.txt serve_rows REGEX "^(window|[0-9]+),")
set(reopt_column -1)
set(reopt_windows 0)
foreach(row IN LISTS serve_rows)
  string(REPLACE "," ";" cells "${row}")
  if(row MATCHES "^window,")
    list(FIND cells reopt_fired reopt_column)
  elseif(reopt_column GREATER -1)
    list(GET cells ${reopt_column} fired)
    if(fired STREQUAL "1")
      math(EXPR reopt_windows "${reopt_windows} + 1")
    endif()
  endif()
endforeach()
if(reopt_column EQUAL -1 OR reopt_windows EQUAL 0)
  message(FATAL_ERROR "determinism gate: probe 'serve' exported no window with reopt_fired = 1 "
                      "— see ${OUT_DIR}/serve-t1.txt")
endif()
message(STATUS "determinism gate: probe 'serve' re-optimized in ${reopt_windows} window(s)")

# Compiled-catalog probes: build the checked-in sample dump into a scratch
# store (no network — tests/data/sites_sample.tsv ships with the repo), then
# run a spatial-index radius query and a banded-latency catalog sweep under
# both thread counts. The build output carries the content-addressed key, so
# diffing it also pins key stability across lane counts.
set(CATALOG_TSV ${CMAKE_CURRENT_LIST_DIR}/../tests/data/sites_sample.tsv)
set(CATALOG_STORE ${OUT_DIR}/catalog-store)
file(MAKE_DIRECTORY ${CATALOG_STORE})
foreach(threads 1 4)
  execute_process(
    COMMAND ${CMAKE_COMMAND} -E env CARBONEDGE_THREADS=${threads}
            CARBONEDGE_STORE_DIR=${OUT_DIR}/store-t${threads}
            ${CLI} catalog --dir ${CATALOG_STORE} build ${CATALOG_TSV}
    OUTPUT_FILE ${OUT_DIR}/catalog-build-t${threads}.txt
    RESULT_VARIABLE status)
  if(NOT status EQUAL 0)
    message(FATAL_ERROR "determinism probe 'catalog build' failed with CARBONEDGE_THREADS=${threads} (exit ${status})")
  endif()
endforeach()
execute_process(
  COMMAND ${CMAKE_COMMAND} -E compare_files
          ${OUT_DIR}/catalog-build-t1.txt ${OUT_DIR}/catalog-build-t4.txt
  RESULT_VARIABLE identical)
if(NOT identical EQUAL 0)
  message(FATAL_ERROR "determinism gate: catalog build output differs between thread counts")
endif()
file(READ ${OUT_DIR}/catalog-build-t1.txt build_output)
string(REGEX MATCH "key ([0-9a-f]+)" _ "${build_output}")
if(NOT CMAKE_MATCH_1)
  message(FATAL_ERROR "determinism gate: could not parse catalog key from build output:\n${build_output}")
endif()
set(CATALOG_KEY ${CMAKE_MATCH_1})

# Radius query (spatial index, exact distances) and a 12-site banded sweep
# (banded LatencyProvider through region construction, solver, and engine).
set(PROBE_catalog_radius "catalog;--dir;${CATALOG_STORE};radius;${CATALOG_KEY};52.0;5.0;400")
set(PROBE_catalog_sweep "catalog;--dir;${CATALOG_STORE};sweep;${CATALOG_KEY};24;--max-sites=12;--band=12")
foreach(probe catalog_radius catalog_sweep)
  run_probe(${probe})
endforeach()

# The metrics snapshot's deterministic view is under the same contract: the
# counts/bytes/invocations it reports must not depend on the worker budget.
# Extract the "deterministic" object from each JSON snapshot (the exporter
# emits name-ordered keys, so equal objects have equal text) and compare.
foreach(threads 1 4)
  file(READ ${OUT_DIR}/metrics-single-t${threads}.json snapshot)
  string(JSON det_${threads} GET "${snapshot}" deterministic)
endforeach()
if(NOT det_1 STREQUAL det_4)
  file(WRITE ${OUT_DIR}/metrics-det-t1.json "${det_1}")
  file(WRITE ${OUT_DIR}/metrics-det-t4.json "${det_4}")
  message(FATAL_ERROR "determinism gate: deterministic metrics view differs between "
                      "CARBONEDGE_THREADS=1 and =4 — compare ${OUT_DIR}/metrics-det-t1.json "
                      "against ${OUT_DIR}/metrics-det-t4.json")
endif()
message(STATUS "determinism gate: deterministic metrics view byte-identical across thread counts")

# Both kinds of B&B node must run inside the gate: nodes a certificate
# settles without an LP (exact shards settled at their root among them), and
# nodes that solve one. The single probe's deterministic view must show
# 0 < solver.milp_settled_nodes < solver.milp_nodes.
string(JSON settled_nodes ERROR_VARIABLE settled_missing GET "${det_1}" solver.milp_settled_nodes)
string(JSON milp_nodes ERROR_VARIABLE nodes_missing GET "${det_1}" solver.milp_nodes)
if(settled_missing OR nodes_missing OR NOT settled_nodes GREATER 0 OR
   NOT settled_nodes LESS milp_nodes)
  message(FATAL_ERROR "determinism gate: probe 'single' must settle some B&B nodes by a "
                      "certificate and solve the LP of others (solver.milp_settled_nodes = "
                      "'${settled_nodes}', solver.milp_nodes = '${milp_nodes}') — see "
                      "${OUT_DIR}/metrics-single-t1.json")
endif()
message(STATUS "determinism gate: probe 'single' settled ${settled_nodes} of ${milp_nodes} "
               "B&B node(s) without an LP")

# Both ways through the sharding layer must run inside the gate as well:
# components settled on every app's cheapest pair without a solve, and
# components that are solved. The single probe's deterministic view must
# show 0 < solver.settled_shards < solver.components.
string(JSON settled_shards ERROR_VARIABLE settled_shards_missing
       GET "${det_1}" solver.settled_shards)
string(JSON components ERROR_VARIABLE components_missing GET "${det_1}" solver.components)
if(settled_shards_missing OR components_missing OR NOT settled_shards GREATER 0 OR
   NOT settled_shards LESS components)
  message(FATAL_ERROR "determinism gate: probe 'single' must settle some components on their "
                      "cheapest pairs and solve others (solver.settled_shards = "
                      "'${settled_shards}', solver.components = '${components}') — see "
                      "${OUT_DIR}/metrics-single-t1.json")
endif()
message(STATUS "determinism gate: probe 'single' settled ${settled_shards} of ${components} "
               "component(s) without a solve")

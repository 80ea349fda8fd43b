# Traffic-generator regression gate, run as a ctest (labels "bench-smoke
# nbc"). Three checks:
#
#   1. Host-parallelism byte-identity: the full artifact (gated JSON and
#      CSV table) must be identical for every --jobs value -- the fan-out
#      over scenarios is an execution strategy, not a model input.
#   2. Overlap win: the non-blocking 2-lane drain must finish the offered
#      load strictly sooner than the serialized blocking drain (the
#      makespan column of the CSV) -- the headline claim of the open-loop
#      harness, pinned so it cannot silently rot.
#   3. Baseline diff: every gated column (p50/p99/p999/makespan, all
#      SIMULATED time) against the committed baseline, TWO-SIDED with a
#      tight tolerance -- a tail quantile drifting low means the schedule
#      or the overlap behavior changed, which is exactly as reportable as
#      a regression. Regenerate the baseline with the exact command below.
#
# Required -D variables: TRAFFIC_GEN, COMPARE (target binaries), BASELINE
# (committed JSON), WORK_DIR (scratch; bench_results/ is written inside).
foreach(var TRAFFIC_GEN COMPARE BASELINE WORK_DIR)
  if(NOT DEFINED ${var})
    message(FATAL_ERROR "traffic_gen_smoke.cmake needs -D${var}=...")
  endif()
endforeach()

foreach(jobs 1 2 8)
  set(dir "${WORK_DIR}/j${jobs}")
  file(MAKE_DIRECTORY "${dir}")
  execute_process(
    COMMAND "${TRAFFIC_GEN}" --jobs=${jobs}
    WORKING_DIRECTORY "${dir}"
    RESULT_VARIABLE bench_rc)
  if(NOT bench_rc EQUAL 0)
    message(FATAL_ERROR "traffic_gen --jobs=${jobs} failed (exit ${bench_rc})")
  endif()
endforeach()

foreach(artifact traffic_gen.json traffic_gen.csv)
  foreach(jobs 2 8)
    execute_process(
      COMMAND ${CMAKE_COMMAND} -E compare_files
        "${WORK_DIR}/j1/bench_results/${artifact}"
        "${WORK_DIR}/j${jobs}/bench_results/${artifact}"
      RESULT_VARIABLE diff_rc)
    if(NOT diff_rc EQUAL 0)
      message(FATAL_ERROR
        "${artifact} differs between --jobs=1 and --jobs=${jobs}: host "
        "parallelism leaked into a simulated artifact")
    endif()
  endforeach()
endforeach()

# Overlap-win gate: makespan(lightweight_nbc_lanes2) < makespan of the
# serialized drain, read from the deterministic CSV. Compared in integer
# nanoseconds (CMake math() has no floats; the column is printed in us
# with 3 decimals, so stripping the dot yields exact ns).
file(STRINGS "${WORK_DIR}/j1/bench_results/traffic_gen.csv" traffic_rows)
set(serialized_makespan "")
set(nbc2_makespan "")
foreach(row IN LISTS traffic_rows)
  if(row MATCHES "^lightweight_serialized,.*,([0-9]+\\.[0-9]+),[0-9]+$")
    set(serialized_makespan "${CMAKE_MATCH_1}")
  elseif(row MATCHES "^lightweight_nbc_lanes2,.*,([0-9]+\\.[0-9]+),[0-9]+$")
    set(nbc2_makespan "${CMAKE_MATCH_1}")
  endif()
endforeach()
if(serialized_makespan STREQUAL "" OR nbc2_makespan STREQUAL "")
  message(FATAL_ERROR "traffic_gen.csv is missing the makespan rows")
endif()
string(REPLACE "." "" serialized_ns "${serialized_makespan}")
string(REPLACE "." "" nbc2_ns "${nbc2_makespan}")
if(NOT nbc2_ns LESS "${serialized_ns}")
  message(FATAL_ERROR
    "open-loop 2-lane drain (${nbc2_makespan} us) did not beat the "
    "serialized blocking drain (${serialized_makespan} us): the overlap "
    "win regressed")
endif()

execute_process(
  COMMAND "${COMPARE}"
    "--baseline=${BASELINE}"
    "--current=${WORK_DIR}/j1/bench_results/traffic_gen.json"
    "--key=scenario"
    "--rel-tol=0.01"
    "--two-sided"
  RESULT_VARIABLE compare_rc)
if(NOT compare_rc EQUAL 0)
  message(FATAL_ERROR
    "traffic_gen gate failed (exit ${compare_rc}); these are simulated "
    "latencies, so any drift is a model/schedule change -- if intentional, "
    "re-commit bench_results/baselines/traffic_gen.json from the fresh "
    "${WORK_DIR}/j1/bench_results/traffic_gen.json")
endif()

# selfperf regression gate, run as a ctest (label "bench-smoke"): runs the
# simulator self-performance benchmark in a reduced configuration and diffs
# its scc-bench-v1 JSON (lower-is-better wall_ms per scenario) against the
# committed baseline with bench/compare. Host wall-clock is noisy -- CI
# machines differ and share cores -- so the tolerance is deliberately wide
# (rel 3.0 + abs 200 ms): the gate only catches catastrophic simulator
# slowdowns (e.g. reintroducing per-event allocations in the engine hot
# loop), not percent-level drift. The baseline must be regenerated with the
# exact command below.
#
# Required -D variables: SELFPERF, COMPARE (target binaries), BASELINE
# (committed JSON), WORK_DIR (scratch; bench_results/ is written inside).
foreach(var SELFPERF COMPARE BASELINE WORK_DIR)
  if(NOT DEFINED ${var})
    message(FATAL_ERROR "selfperf_smoke.cmake needs -D${var}=...")
  endif()
endforeach()

file(MAKE_DIRECTORY "${WORK_DIR}")
execute_process(
  COMMAND "${SELFPERF}"
    --events=1000000 --from=540 --to=580 --step=20 --reps=1 --jobs=2
  WORKING_DIRECTORY "${WORK_DIR}"
  RESULT_VARIABLE bench_rc)
if(NOT bench_rc EQUAL 0)
  message(FATAL_ERROR "selfperf failed (exit ${bench_rc})")
endif()

execute_process(
  COMMAND "${COMPARE}"
    "--baseline=${BASELINE}"
    "--current=${WORK_DIR}/bench_results/selfperf.json"
    "--key=scenario"
    "--rel-tol=3.0"
    "--abs-tol=200.0"
  RESULT_VARIABLE compare_rc)
if(NOT compare_rc EQUAL 0)
  message(FATAL_ERROR
    "selfperf gate failed (exit ${compare_rc}); if the wall-clock change is "
    "intentional (new hardware class, heavier model), re-commit "
    "bench_results/baselines/selfperf.json from the fresh "
    "${WORK_DIR}/bench_results/selfperf.json")
endif()

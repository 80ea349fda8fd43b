# bench-smoke regression gate, run as a ctest (see scc_smoke_gate in
# bench/CMakeLists.txt): runs one bench binary in WORK_DIR, then diffs the
# scc-bench-v1 JSON it wrote against the committed baseline with
# bench/compare.
#
# Required -D variables: BINARY, COMPARE (target binaries), ARGS (the
# binary's arguments, space-separated; may be empty), RESULT (the JSON
# file name under WORK_DIR/bench_results), BASELINE (committed JSON),
# COMPARE_ARGS (extra compare flags, space-separated; may be empty),
# WORK_DIR (scratch; bench_results/ is written inside).
foreach(var BINARY COMPARE ARGS RESULT BASELINE COMPARE_ARGS WORK_DIR)
  if(NOT DEFINED ${var})
    message(FATAL_ERROR "smoke_gate.cmake needs -D${var}=...")
  endif()
endforeach()
separate_arguments(args UNIX_COMMAND "${ARGS}")
separate_arguments(compare_args UNIX_COMMAND "${COMPARE_ARGS}")

file(MAKE_DIRECTORY "${WORK_DIR}")
execute_process(
  COMMAND "${BINARY}" ${args}
  WORKING_DIRECTORY "${WORK_DIR}"
  RESULT_VARIABLE bench_rc)
if(NOT bench_rc EQUAL 0)
  message(FATAL_ERROR "${BINARY} ${ARGS} failed (exit ${bench_rc})")
endif()

set(current "${WORK_DIR}/bench_results/${RESULT}")
execute_process(
  COMMAND "${COMPARE}" "--baseline=${BASELINE}" "--current=${current}"
    ${compare_args}
  RESULT_VARIABLE compare_rc)
if(NOT compare_rc EQUAL 0)
  message(FATAL_ERROR
    "gate failed (exit ${compare_rc}); if the change is intentional, "
    "re-commit ${BASELINE} from the fresh ${current}")
endif()

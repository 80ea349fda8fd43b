# bench-smoke regression gate, run as a ctest (see scc_smoke_gate in
# bench/CMakeLists.txt): runs one bench binary in WORK_DIR, then requires
# the scc-bench-v1 JSON it wrote to equal the committed baseline byte for
# byte. Every gated column is deterministic (simulated time or a work
# counter), so any difference is a model change; an intentional one must
# re-commit the baseline.
#
# Required -D variables: BINARY (target binary), ARGS (the binary's
# arguments, space-separated; may be empty), RESULT (the JSON file name
# under WORK_DIR/bench_results), BASELINE (committed JSON), WORK_DIR
# (scratch; bench_results/ is created inside first, for binaries that are
# told to write there but do not create it themselves).
foreach(var BINARY ARGS RESULT BASELINE WORK_DIR)
  if(NOT DEFINED ${var})
    message(FATAL_ERROR "smoke_gate.cmake needs -D${var}=...")
  endif()
endforeach()
separate_arguments(args UNIX_COMMAND "${ARGS}")

set(current "${WORK_DIR}/bench_results/${RESULT}")
file(MAKE_DIRECTORY "${WORK_DIR}/bench_results")
file(REMOVE "${current}")  # a stale file from an earlier run must not pass
execute_process(
  COMMAND "${BINARY}" ${args}
  WORKING_DIRECTORY "${WORK_DIR}"
  RESULT_VARIABLE bench_rc)
if(NOT bench_rc EQUAL 0)
  message(FATAL_ERROR "${BINARY} ${ARGS} failed (exit ${bench_rc})")
endif()

if(NOT EXISTS "${current}")
  message(FATAL_ERROR "${BINARY} ${ARGS} did not write ${current}")
endif()
execute_process(
  COMMAND ${CMAKE_COMMAND} -E compare_files "${BASELINE}" "${current}"
  RESULT_VARIABLE diff_rc)
if(NOT diff_rc EQUAL 0)
  file(READ "${BASELINE}" committed)
  file(READ "${current}" fresh)
  # Plain message(): printed verbatim, so the documents stay diffable.
  message("${current} differs from the committed baseline ${BASELINE}\n"
          "--- committed\n${committed}--- fresh\n${fresh}")
  message(FATAL_ERROR "baseline mismatch; if the change is intentional, "
                      "re-commit ${BASELINE} from ${current}")
endif()

# Bad-input gate, run as a ctest (label "bench-smoke"): every CLI must
# reject an unknown flag (including the removed --workers) and a stray
# token that is not --name[=value] with exit status exactly 2 (usage error)
# instead of ignoring it and running. fig9 must also reject a missing or
# non-Fig. 9 --collective, out-of-range sweep values and an --algo the
# collective does not have.
#
# Required -D variables: BINARIES (target binaries, space-separated), FIG9
# (target binary), WORK_DIR (scratch working directory).
foreach(var BINARIES FIG9 WORK_DIR)
  if(NOT DEFINED ${var})
    message(FATAL_ERROR "cli_usage_smoke.cmake needs -D${var}=...")
  endif()
endforeach()
separate_arguments(binaries UNIX_COMMAND "${BINARIES}")

file(MAKE_DIRECTORY "${WORK_DIR}")
function(expect_usage_error binary)
  execute_process(
    COMMAND "${binary}" ${ARGN}
    WORKING_DIRECTORY "${WORK_DIR}"
    RESULT_VARIABLE rc
    OUTPUT_QUIET
    ERROR_QUIET)
  if(NOT rc STREQUAL "2")
    message(FATAL_ERROR "${binary} ${ARGN} exited ${rc}, expected 2")
  endif()
endfunction()

foreach(binary IN LISTS binaries)
  foreach(arg --bogus=1 --workers=2 jobs=2)
    expect_usage_error("${binary}" ${arg})
  endforeach()
endforeach()

expect_usage_error("${FIG9}" --collective=allreduce --bogus=1)
expect_usage_error("${FIG9}" --collective=allreduce jobs=2)
expect_usage_error("${FIG9}" --from=552 --to=552)
expect_usage_error("${FIG9}" --collective=scatter)
expect_usage_error("${FIG9}" --collective=allreduce --reps=0)
expect_usage_error("${FIG9}" --collective=allreduce --from=700 --to=500)
expect_usage_error("${FIG9}" --collective=broadcast --algo=ring)
expect_usage_error("${FIG9}" --collective=allreduce --algo=ring)

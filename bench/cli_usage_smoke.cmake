# Bad-input gate, run as a ctest (label "bench-smoke"): each CLI must reject
# an unknown flag -- including the removed --workers -- with exit status
# exactly 2 (usage error) instead of ignoring it and running.
#
# Required -D variables: PLAYGROUND, FIG9F (target binaries), WORK_DIR
# (scratch working directory).
foreach(var PLAYGROUND FIG9F WORK_DIR)
  if(NOT DEFINED ${var})
    message(FATAL_ERROR "cli_usage_smoke.cmake needs -D${var}=...")
  endif()
endforeach()

file(MAKE_DIRECTORY "${WORK_DIR}")
foreach(binary "${PLAYGROUND}" "${FIG9F}")
  foreach(arg --bogus=1 --workers=2)
    execute_process(
      COMMAND "${binary}" ${arg}
      WORKING_DIRECTORY "${WORK_DIR}"
      RESULT_VARIABLE rc
      OUTPUT_QUIET
      ERROR_QUIET)
    if(NOT rc STREQUAL "2")
      message(FATAL_ERROR "${binary} ${arg} exited ${rc}, expected 2")
    endif()
  endforeach()
endforeach()

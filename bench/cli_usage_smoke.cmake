# Bad-input gate, run as a ctest (label "bench-smoke"): every CLI must
# reject an unknown flag (including the removed --workers) and a stray
# token that is not --name[=value] with exit status exactly 2 (usage error)
# instead of ignoring it and running. fig9 must also reject a missing or
# non-Fig. 9 --collective, out-of-range sweep values and an --algo the
# collective does not have. Integers inside flag values (--mesh=WxH,
# --sizes, fault specs) must be whole, in range and not overflow, a fault
# factor must be a finite number, a fault clause must fit the mesh (no
# straggler on a core it lacks), flags narrowed to int must fit, and the
# examples must reject bad names and sizes up front instead of crashing.
# Sizes the 8 KB MPB cannot hold are usage errors too: a mesh with more
# cores than the RCCE layout has flag lines for, an RCKMPI mesh too large
# for two-line peer rings, and MPB-direct Allreduce blocks that cannot be
# double-buffered.
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
expect_usage_error("${FIG9}" --collective=allreduce --from=20000 --to=20000)

# The path of the binary called <name> in BINARIES.
function(binary_path name out)
  foreach(binary IN LISTS binaries)
    get_filename_component(base "${binary}" NAME)
    if(base STREQUAL name)
      set(${out} "${binary}" PARENT_SCOPE)
      return()
    endif()
  endforeach()
  message(FATAL_ERROR "cli_usage_smoke.cmake: no ${name} in BINARIES")
endfunction()

foreach(name tab_algo_select abl_degradation collective_playground
             topology_explorer)
  binary_path(${name} binary)
  foreach(mesh 0x4 -1x4 6junkx4 ax4 2x 99999999999x4 16x8)
    expect_usage_error("${binary}" --mesh=${mesh})
  endforeach()
endforeach()

binary_path(tab_algo_select binary)
expect_usage_error("${binary}" --sizes=8junk)
expect_usage_error("${binary}" --sizes=8,,)
binary_path(collective_playground binary)
expect_usage_error("${binary}" --variant=rckmpi --mesh=7x7)
expect_usage_error("${binary}" --variant=mpb --elements=19969)
expect_usage_error("${binary}" --faults=straggler:99999999999x2)
expect_usage_error("${binary}" --faults=straggler:99x2)
expect_usage_error("${binary}" --faults=straggler:3x.)
binary_path(obs_report binary)
expect_usage_error("${binary}" --out=x.html --reps=4294967296)
expect_usage_error("${binary}" --out=x.html --warmup=4294967295)
binary_path(perturb_soak binary)
expect_usage_error("${binary}" --seeds=4294967296)
binary_path(topology_explorer binary)
expect_usage_error("${binary}" --from-core=48)
binary_path(cg_solver binary)
expect_usage_error("${binary}" --variant=mpb)
binary_path(gcmc_demo binary)
expect_usage_error("${binary}" --variant=nope)
expect_usage_error("${binary}" --capacity=0)
expect_usage_error("${binary}" --particles=49 --capacity=1)
expect_usage_error("${binary}" --variant=mpb --kmaxvecs=10000)
expect_usage_error("${binary}" --compare --kmaxvecs=10000)
binary_path(heat_stencil binary)
expect_usage_error("${binary}" --cells-per-core=0)

# Determinism gate for a bench's stdout: runs BENCH with the
# comma-separated ARGS inside WORKDIR (a directory under the build tree,
# so the bench's bench_out/ artifacts never land in the source tree) and
# requires its stdout to equal the GOLDEN file byte for byte.
#
#   cmake -DBENCH=<binary> -DARGS=--smoke,--threads,1 -DGOLDEN=<file>
#         -DWORKDIR=<dir> -P golden_check.cmake
#
# Regenerate after an intentional change with REDBUD_REGEN_GOLDEN=1 in the
# environment (ctest -R BenchGolden), then review the diff.
string(REPLACE "," ";" bench_args "${ARGS}")
string(REPLACE "," " " bench_cmdline "${BENCH} ${ARGS}")
file(MAKE_DIRECTORY "${WORKDIR}")
execute_process(
  COMMAND "${BENCH}" ${bench_args}
  WORKING_DIRECTORY "${WORKDIR}"
  OUTPUT_VARIABLE actual
  RESULT_VARIABLE rc)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "${bench_cmdline} exited with ${rc}")
endif()
if(DEFINED ENV{REDBUD_REGEN_GOLDEN})
  file(WRITE "${GOLDEN}" "${actual}")
  message(STATUS "regenerated ${GOLDEN}")
  return()
endif()
file(READ "${GOLDEN}" golden)
if(NOT actual STREQUAL golden)
  file(WRITE "${WORKDIR}/stdout.actual" "${actual}")
  message(FATAL_ERROR
    "stdout of ${bench_cmdline} differs from ${GOLDEN}; actual "
    "output saved to ${WORKDIR}/stdout.actual (diff it against the golden)")
endif()

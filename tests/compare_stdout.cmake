# Runs EXE with ARGS (a ;-list) and fails unless it exits 0 and its stdout
# is byte-identical to the file GOLDEN. Used by ctest for CLI output that
# must not drift unnoticed:
#
#   cmake -DEXE=build/loom_partition -DARGS=--help-opts \
#         -DGOLDEN=tests/loom_partition_help_opts.txt -P tests/compare_stdout.cmake
#
# To re-golden on purpose: build/loom_partition --help-opts > GOLDEN.
execute_process(COMMAND ${EXE} ${ARGS}
                RESULT_VARIABLE rc
                OUTPUT_VARIABLE actual
                ERROR_VARIABLE errors)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "${EXE} ${ARGS} exited with ${rc}:\n${errors}")
endif()
file(READ ${GOLDEN} expected)
if(NOT actual STREQUAL expected)
  message(FATAL_ERROR "stdout of ${EXE} ${ARGS} differs from ${GOLDEN}; "
                      "got:\n${actual}")
endif()

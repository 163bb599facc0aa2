# Runs EXE with ARGS (a ;-list) and fails unless it exits with code RC and
# its stderr contains the text STDERR_HAS. Used by ctest for command lines
# a CLI must reject:
#
#   cmake -DEXE=build/loom_generate "-DARGS=--dataset;dblp;--scal;0.01" \
#         -DRC=2 "-DSTDERR_HAS=unknown flag: --scal" -P tests/expect_exit.cmake
execute_process(COMMAND ${EXE} ${ARGS}
                RESULT_VARIABLE rc
                OUTPUT_VARIABLE output
                ERROR_VARIABLE errors)
if(NOT rc STREQUAL RC)
  message(FATAL_ERROR "${EXE} ${ARGS} exited with ${rc}, expected ${RC}:\n"
                      "${output}${errors}")
endif()
string(FIND "${errors}" "${STDERR_HAS}" at)
if(at EQUAL -1)
  message(FATAL_ERROR "stderr of ${EXE} ${ARGS} lacks '${STDERR_HAS}'; "
                      "got:\n${errors}")
endif()

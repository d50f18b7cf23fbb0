# Runs one CLI command and checks how it ended, where ctest's own
# pass/fail (or WILL_FAIL, which cannot tell exit 1 from a signal) is too
# coarse:
#   EXIT=<n>     the command must exit with status exactly <n> and print a
#                diagnosis on stderr; with ERROR_LINE=1 that diagnosis must
#                be exactly one line starting "error: ";
#   GOLDEN=FILE  the command must exit 0 and its stdout must equal FILE
#                byte for byte.
#
# Usage: cmake -DCMD=<exe> "-DARGS=<args>"
#              (-DEXIT=<n> [-DERROR_LINE=1] | -DGOLDEN=<file>)
#              -P CliExpect.cmake

separate_arguments(CMD_ARGS UNIX_COMMAND "${ARGS}")

execute_process(COMMAND ${CMD} ${CMD_ARGS}
                OUTPUT_VARIABLE Out ERROR_VARIABLE Err RESULT_VARIABLE Code)

if(DEFINED EXIT)
  if(NOT Code STREQUAL EXIT)
    message(FATAL_ERROR "${CMD} ${ARGS}: expected exit status ${EXIT}, got "
                        "'${Code}'\nstderr: ${Err}")
  endif()
  if(Err STREQUAL "")
    message(FATAL_ERROR "${CMD} ${ARGS}: exited ${Code} without a diagnosis")
  endif()
  if(ERROR_LINE AND NOT Err MATCHES "^error: [^\n]*\n$")
    message(FATAL_ERROR "${CMD} ${ARGS}: expected a one-line 'error:' "
                        "diagnosis, got:\n${Err}")
  endif()
  message(STATUS "exit ${Code}: ${Err}")
elseif(DEFINED GOLDEN)
  if(NOT Code EQUAL 0)
    message(FATAL_ERROR "${CMD} ${ARGS}: exited with '${Code}'\n${Err}")
  endif()
  file(READ ${GOLDEN} Expected)
  if(NOT Out STREQUAL Expected)
    message(FATAL_ERROR "${CMD} ${ARGS}: stdout differs from ${GOLDEN}\n"
                        "--- got ---\n${Out}")
  endif()
else()
  message(FATAL_ERROR "CliExpect.cmake needs -DEXIT=<n> or -DGOLDEN=<file>")
endif()

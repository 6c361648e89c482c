# Runs TOOL with up to three arguments (ARG1..ARG3) and fails unless it exits
# with status EXIT_CODE and its stdout+stderr match OUTPUT_REGEX.  A tool
# that dies on an uncaught exception exits through abort(), which never
# matches a numeric EXIT_CODE.
#
#   cmake -DTOOL=<path> -DARG1=... -DEXIT_CODE=N -DOUTPUT_REGEX=... \
#         -P expect_exit.cmake
set(args)
foreach(n 1 2 3)
  if(DEFINED ARG${n})
    list(APPEND args "${ARG${n}}")
  endif()
endforeach()
execute_process(COMMAND "${TOOL}" ${args}
                RESULT_VARIABLE status
                OUTPUT_VARIABLE out
                ERROR_VARIABLE err)
if(NOT status STREQUAL "${EXIT_CODE}")
  message(FATAL_ERROR
      "exit status '${status}', expected ${EXIT_CODE}\n${out}${err}")
endif()
if(NOT "${out}${err}" MATCHES "${OUTPUT_REGEX}")
  message(FATAL_ERROR
      "output does not match '${OUTPUT_REGEX}':\n${out}${err}")
endif()

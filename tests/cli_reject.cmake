# Run one command line that must be rejected: it has to exit non-zero
# and print a message matching EXPECT on stderr.
#
#   cmake -DEXE=<binary> -DARGS=<args joined by |> -DEXPECT=<regex>
#         -P tests/cli_reject.cmake
string(REPLACE "|" ";" args "${ARGS}")
execute_process(COMMAND "${EXE}" ${args}
  RESULT_VARIABLE status
  OUTPUT_VARIABLE out
  ERROR_VARIABLE err)
if(status EQUAL 0)
  message(FATAL_ERROR "${EXE} ${args}: exited 0, expected a rejection\n${out}")
endif()
if(NOT err MATCHES "${EXPECT}")
  message(FATAL_ERROR
    "${EXE} ${args}: stderr does not match \"${EXPECT}\":\n${err}")
endif()

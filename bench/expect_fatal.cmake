# Runs ${BENCH} ${ARG} and passes only when it exits with status 1 and
# its stderr matches the regex ${EXPECT}:
#   cmake -DBENCH=<binary> -DARG=<flag> -DEXPECT=<regex> -P expect_fatal.cmake
execute_process(COMMAND ${BENCH} ${ARG}
                RESULT_VARIABLE status
                OUTPUT_QUIET
                ERROR_VARIABLE err)
if(NOT status EQUAL 1)
  message(FATAL_ERROR "${BENCH} ${ARG}: exit status '${status}', "
                      "expected 1; stderr:\n${err}")
endif()
if(NOT err MATCHES "${EXPECT}")
  message(FATAL_ERROR "${BENCH} ${ARG}: stderr does not match "
                      "'${EXPECT}':\n${err}")
endif()

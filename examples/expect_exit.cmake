# ctest helper: runs EXE with the comma-separated ARGS and fails unless it
# exits with status EXPECT. A crash or abort reports a string status such as
# "Child aborted", so it cannot pass for a usage error.
#
#   cmake -DEXE=<path> -DARGS=--n,four -DEXPECT=2 -P expect_exit.cmake
string(REPLACE "," ";" args "${ARGS}")
execute_process(COMMAND "${EXE}" ${args} RESULT_VARIABLE rc
                OUTPUT_QUIET ERROR_QUIET)
if(NOT rc STREQUAL "${EXPECT}")
  message(FATAL_ERROR "${EXE} ${ARGS}: expected exit status ${EXPECT}, got '${rc}'")
endif()

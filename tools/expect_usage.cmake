# cmake -DEXE=<tool> -DARG=<argument> -P expect_usage.cmake
#
# Passes when `<tool> <argument>` exits 2 and prints the usage message
# on stderr: how the command-line tools refuse an argument.
execute_process(COMMAND ${EXE} ${ARG}
    RESULT_VARIABLE rc OUTPUT_QUIET ERROR_VARIABLE err)
if(NOT rc EQUAL 2 OR NOT err MATCHES "^usage: ")
    message(FATAL_ERROR
        "${EXE} ${ARG}: expected exit 2 with usage, got exit ${rc}:\n${err}")
endif()

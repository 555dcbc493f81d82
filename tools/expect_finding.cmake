# cmake -DEXE=<noreba-verify> -DASM=<file.s> -DFINDING=<text> -P expect_finding.cmake
#
# Passes when `<noreba-verify> --asm <file.s>` exits 1 and its text
# report has a line containing <text>: the rule and the location of
# the error the fixture plants.
execute_process(COMMAND ${EXE} --asm ${ASM}
    RESULT_VARIABLE rc OUTPUT_VARIABLE out ERROR_VARIABLE err)
string(FIND "${out}" "${FINDING}" at)
if(NOT rc EQUAL 1 OR at EQUAL -1)
    message(FATAL_ERROR "${EXE} --asm ${ASM}: expected exit 1 and a "
        "line with '${FINDING}', got exit ${rc}:\n${out}${err}")
endif()

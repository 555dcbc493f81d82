# cmake -DEXE=<noreba-stats-diff> -DA=<a.json> -DB=<b.json> -DRC=<status>
#       [-DIGNORE=<counter>] [-DTEXT=<text>] [-DDROP_LAST=ON]
#       -P expect_stats_diff.cmake
#
# Passes when `<noreba-stats-diff> --expect-equal [--ignore <counter>]
# A B` exits <status> and, if TEXT is given, prints a line containing
# it. With DROP_LAST, B is first rewritten without its last record, so
# that record is on one side only. CI's equality gates read this exit
# status.
cmake_minimum_required(VERSION 3.19) # string(JSON)
set(flags --expect-equal)
if(DEFINED IGNORE)
    list(APPEND flags --ignore ${IGNORE})
endif()
if(DROP_LAST)
    file(READ ${B} doc)
    string(JSON n LENGTH "${doc}" results)
    math(EXPR last "${n} - 1")
    string(JSON doc REMOVE "${doc}" results ${last})
    set(B ${CMAKE_CURRENT_BINARY_DIR}/stats_diff_dropped_last.json)
    file(WRITE ${B} "${doc}")
endif()
execute_process(COMMAND ${EXE} ${flags} ${A} ${B}
    RESULT_VARIABLE rc OUTPUT_VARIABLE out ERROR_VARIABLE err)
set(at 0)
if(DEFINED TEXT)
    string(FIND "${out}" "${TEXT}" at)
endif()
if(NOT rc EQUAL RC OR at EQUAL -1)
    message(FATAL_ERROR "${EXE} ${flags} ${A} ${B}: expected exit ${RC}"
        " and a line with '${TEXT}', got exit ${rc}:\n${out}${err}")
endif()

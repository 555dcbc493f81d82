# cmake -DDIR=<src/analysis> -P analysis_shares_no_solver.cmake
#
# Passes when no source under DIR includes a compiler/ header, the
# compiler pass's dominance or reaching-definitions solver
# (ir/dominance.h, ir/reaching_defs.h) or a shared dataflow engine
# (ir/dataflow.h), and DIR's CMakeLists.txt does not name
# noreba_compiler: the annotation checker re-derives both facts with
# its own loops and cannot call into the pass it validates.
file(GLOB_RECURSE sources "${DIR}/*.h" "${DIR}/*.cc")
if(NOT sources)
    message(FATAL_ERROR "no sources under ${DIR}")
endif()
set(shared "")
foreach(src IN LISTS sources)
    file(STRINGS "${src}" hits REGEX
        "^[ \t]*#[ \t]*include[ \t]*[\"<](compiler/|ir/(dominance|reaching_defs|dataflow)\\.h)")
    foreach(hit IN LISTS hits)
        string(APPEND shared "\n  ${src}: ${hit}")
    endforeach()
endforeach()
file(STRINGS "${DIR}/CMakeLists.txt" links REGEX "noreba_compiler")
foreach(hit IN LISTS links)
    string(APPEND shared "\n  ${DIR}/CMakeLists.txt: ${hit}")
endforeach()
if(shared)
    message(FATAL_ERROR "the checker shares code with the pass:${shared}")
endif()

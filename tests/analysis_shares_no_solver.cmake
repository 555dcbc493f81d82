# cmake -DDIR=<src/analysis> -P analysis_shares_no_solver.cmake
#
# Passes when no source under DIR includes the compiler pass's
# dominance or reaching-definitions solver (ir/dominance.h,
# ir/reaching_defs.h) or a shared dataflow engine (ir/dataflow.h):
# the annotation checker re-derives both facts with its own loops.
file(GLOB_RECURSE sources "${DIR}/*.h" "${DIR}/*.cc")
if(NOT sources)
    message(FATAL_ERROR "no sources under ${DIR}")
endif()
set(shared "")
foreach(src IN LISTS sources)
    file(STRINGS "${src}" hits REGEX
        "^[ \t]*#[ \t]*include[ \t]*[\"<]ir/(dominance|reaching_defs|dataflow)\\.h[\">]")
    foreach(hit IN LISTS hits)
        string(APPEND shared "\n  ${src}: ${hit}")
    endforeach()
endforeach()
if(shared)
    message(FATAL_ERROR "the checker shares a solver with the pass:${shared}")
endif()

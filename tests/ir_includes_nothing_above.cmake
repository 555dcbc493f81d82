# cmake -DDIR=<src/ir> -P ir_includes_nothing_above.cmake
#
# Passes when no source under DIR includes a header of a layer built
# on the IR (analysis/, compiler/, interp/, uarch/, sim/) and DIR's
# CMakeLists.txt links none of their libraries: the IR, its verifier
# and its diagnostics stay below everything that consumes them.
file(GLOB_RECURSE sources "${DIR}/*.h" "${DIR}/*.cc")
if(NOT sources)
    message(FATAL_ERROR "no sources under ${DIR}")
endif()
set(upward "")
foreach(src IN LISTS sources)
    file(STRINGS "${src}" hits REGEX
        "^[ \t]*#[ \t]*include[ \t]*[\"<](analysis|compiler|interp|uarch|sim)/")
    foreach(hit IN LISTS hits)
        string(APPEND upward "\n  ${src}: ${hit}")
    endforeach()
endforeach()
file(STRINGS "${DIR}/CMakeLists.txt" links REGEX
    "noreba_(analysis|compiler|interp|uarch|sim)")
foreach(hit IN LISTS links)
    string(APPEND upward "\n  ${DIR}/CMakeLists.txt: ${hit}")
endforeach()
if(upward)
    message(FATAL_ERROR "the IR depends on a layer above it:${upward}")
endif()

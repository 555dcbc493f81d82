# cmake -DROOT=<repo root> -P docs_env_knobs.cmake
#
# Passes when the NOREBA_* names of the docs and the code agree, both
# ways:
#   - every NOREBA_[A-Z_]+ token in README.md, EXPERIMENTS.md and
#     DESIGN.md is a name the code defines: a "NOREBA_..." string
#     literal under src/, bench/ or tools/, a function-like macro
#     defined there (the X-macro tables), or a CMake variable set in a
#     CMakeLists.txt (the NOREBA_SANITIZE option);
#   - every "NOREBA_..." string literal under src/, bench/ or tools/
#     (the environment knobs) appears in EXPERIMENTS.md.
# perf/ keeps its own knobs and README.md and is not scanned.
cmake_minimum_required(VERSION 3.16)
set(docs README.md EXPERIMENTS.md DESIGN.md)
file(GLOB_RECURSE code
    "${ROOT}/src/*.h" "${ROOT}/src/*.cc"
    "${ROOT}/bench/*.h" "${ROOT}/bench/*.cc"
    "${ROOT}/tools/*.h" "${ROOT}/tools/*.cc")
if(NOT code)
    message(FATAL_ERROR "no sources under ${ROOT}")
endif()

set(literals "")
set(defined "")
foreach(src IN LISTS code)
    file(STRINGS "${src}" lines REGEX "NOREBA_")
    foreach(line IN LISTS lines)
        string(REGEX MATCHALL "\"NOREBA_[A-Z_]+\"" lits "${line}")
        foreach(lit IN LISTS lits)
            string(REPLACE "\"" "" name "${lit}")
            list(APPEND literals "${name}")
        endforeach()
        if(line MATCHES "^[ \t]*#[ \t]*define[ \t]+(NOREBA_[A-Z_]+)\\(")
            list(APPEND defined "${CMAKE_MATCH_1}")
        endif()
    endforeach()
endforeach()
list(REMOVE_DUPLICATES literals)
list(APPEND defined ${literals})

file(GLOB_RECURSE lists "${ROOT}/CMakeLists.txt" "${ROOT}/src/CMakeLists.txt"
    "${ROOT}/src/*/CMakeLists.txt" "${ROOT}/bench/CMakeLists.txt"
    "${ROOT}/tools/CMakeLists.txt")
foreach(list_file IN LISTS lists)
    file(STRINGS "${list_file}" lines REGEX "(set|option)\\(NOREBA_")
    foreach(line IN LISTS lines)
        if(line MATCHES "(set|option)\\((NOREBA_[A-Z_]+)")
            list(APPEND defined "${CMAKE_MATCH_2}")
        endif()
    endforeach()
endforeach()

set(problems "")
foreach(doc IN LISTS docs)
    file(READ "${ROOT}/${doc}" text)
    string(REGEX MATCHALL "NOREBA_[A-Z_]+" tokens "${text}")
    list(REMOVE_DUPLICATES tokens)
    foreach(token IN LISTS tokens)
        if(NOT token IN_LIST defined)
            string(APPEND problems
                "\n  ${doc} names ${token}, which the code does not define")
        endif()
    endforeach()
    if(doc STREQUAL "EXPERIMENTS.md")
        set(documented ${tokens})
    endif()
endforeach()
foreach(name IN LISTS literals)
    if(NOT name IN_LIST documented)
        string(APPEND problems
            "\n  the code reads ${name}, which EXPERIMENTS.md does not document")
    endif()
endforeach()
if(problems)
    message(FATAL_ERROR "docs and code disagree on NOREBA_* names:${problems}")
endif()

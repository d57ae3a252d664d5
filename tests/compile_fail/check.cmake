# Builds one compile-fail target and passes only when the build fails with
# exactly the diagnostics its source announces: every line marked
# `// expect: <flag>` reports an error tagged [-Werror=<flag>], and no
# other error appears (a missing header or a typo fails the check).
#   cmake -DBUILD_DIR=<dir> -DTARGET=<target> -DSOURCE=<file> -P check.cmake
cmake_minimum_required(VERSION 3.16)
execute_process(COMMAND "${CMAKE_COMMAND}" --build "${BUILD_DIR}"
                        --target "${TARGET}"
                OUTPUT_VARIABLE out ERROR_VARIABLE err RESULT_VARIABLE rc)
string(APPEND out "\n${err}")
if(rc EQUAL 0)
  message(FATAL_ERROR "${TARGET} compiled, but every marked line must fail")
endif()

# Marked lines of the source, as "<line>:<flag>".
file(READ "${SOURCE}" text)
set(marks "")
set(lineno 0)
while(NOT text STREQUAL "")
  math(EXPR lineno "${lineno} + 1")
  string(FIND "${text}" "\n" eol)
  if(eol EQUAL -1)
    set(line "${text}")
    set(text "")
  else()
    string(SUBSTRING "${text}" 0 ${eol} line)
    math(EXPR next "${eol} + 1")
    string(SUBSTRING "${text}" ${next} -1 text)
  endif()
  if("${line}" MATCHES "// expect: ([a-z-]+)")
    list(APPEND marks "${lineno}:${CMAKE_MATCH_1}")
  endif()
endwhile()
if(NOT marks)
  message(FATAL_ERROR "${SOURCE} marks no line with `// expect: <flag>`")
endif()

# Every error must be an announced one.
get_filename_component(name "${SOURCE}" NAME)
string(REGEX MATCHALL "[^\n]*: (fatal )?error: [^\n]*" errors "${out}")
set(seen "")
foreach(e IN LISTS errors)
  set(at "")
  if(e MATCHES "${name}:([0-9]+):[0-9]+: error: .*\\[-Werror=([a-z-]+)\\]")
    set(at "${CMAKE_MATCH_1}:${CMAKE_MATCH_2}")
  endif()
  if(NOT at IN_LIST marks)
    message(FATAL_ERROR "unexpected error building ${TARGET}:\n${e}")
  endif()
  list(APPEND seen "${at}")
endforeach()
foreach(m IN LISTS marks)
  if(NOT m IN_LIST seen)
    message(FATAL_ERROR "${name}:${m}: no such diagnostic; build output:\n${out}")
  endif()
endforeach()
message(STATUS "${TARGET}: ${name} fails exactly on its marked lines")

# Source checks for what no compiler sees, over the C++ files under
# ROOT's src, tests, bench, examples and tools trees:
#   raw-span     calls of Tracer::BeginAt/EndAt (through `.` or `->`)
#                only in sim::ScopedSpan (src/sim/trace.h) and the
#                tracer's own tests: a span paired by hand stays open on
#                an early return.
#   layering     src/<dir> includes no higher-ranked src/<dir>: sim 0,
#                hw 1, hv 2, and 3 for services, root, vmm, guest and
#                baseline. Every header is visible through the shared
#                include root, so an upward include of an inline-only
#                header would build and link.
#   determinism  simulated-machine code (src/{sim,hw,hv,vmm,guest,root,
#                services}) names no std::unordered_* (but in the
#                sim::HashIndex header), no wall clock or host randomness
#                (but in sim::Rng), no std:: map or set keyed by a
#                pointer, and casts no pointer to uintptr_t.
# `//` comments are blanked first. Each violation prints
# `<file>:<line>: [<rule>] <what>`, and any fails the check.
#   cmake -DROOT=<dir> [-DFIXTURES=ON] -P check_sources.cmake
# With FIXTURES (tests/source_check_fixtures) the check passes only when
# the violations are exactly the lines marked `// expect: <rule>`.
cmake_minimum_required(VERSION 3.16)

set(above_sim "hw|hv|services|root|vmm|guest|baseline")
set(above_hw "hv|services|root|vmm|guest|baseline")
set(above_hv "services|root|vmm|guest|baseline")

# Appends `<file>:<line>: [<rule>] <what>` to the list `out` for every
# match of `regex` in `text`; an empty `rule` takes the match's first group.
function(scan out text regex rule what)
  set(rest "${text}")
  set(offset 0)
  while(rest MATCHES "${regex}")
    set(match "${CMAKE_MATCH_0}")
    if(match STREQUAL "")
      message(FATAL_ERROR "\"${regex}\" matches the empty string")
    endif()
    set(hit_rule "${rule}")
    if(rule STREQUAL "")
      set(hit_rule "${CMAKE_MATCH_1}")
    endif()
    string(FIND "${rest}" "${match}" pos)
    math(EXPR at "${offset} + ${pos}")
    string(SUBSTRING "${text}" 0 ${at} before)
    string(REGEX REPLACE "[^\n]" "" newlines "${before}")
    string(LENGTH "${newlines}" line)
    math(EXPR line "${line} + 1")
    list(APPEND ${out} "${file}:${line}: [${hit_rule}] ${what}")
    string(LENGTH "${match}" length)
    math(EXPR skip "${pos} + ${length}")
    math(EXPR offset "${offset} + ${skip}")
    string(SUBSTRING "${rest}" ${skip} -1 rest)
  endwhile()
  set(${out} "${${out}}" PARENT_SCOPE)
endfunction()

get_filename_component(ROOT "${ROOT}" ABSOLUTE)
set(files "")
foreach(tree src tests bench examples tools)
  file(GLOB_RECURSE tree_files RELATIVE "${ROOT}"
       "${ROOT}/${tree}/*.h" "${ROOT}/${tree}/*.cc" "${ROOT}/${tree}/*.cpp")
  list(APPEND files ${tree_files})
endforeach()
if(NOT FIXTURES)
  list(FILTER files EXCLUDE REGEX "^tests/source_check_fixtures/")
endif()
list(SORT files)
list(LENGTH files scanned)
if(scanned EQUAL 0)
  message(FATAL_ERROR "no C++ files under ${ROOT}")
endif()

set(hits "")
set(marks "")
foreach(file IN LISTS files)
  file(READ "${ROOT}/${file}" raw)
  if(FIXTURES)
    scan(marks "${raw}" "// expect: ([a-z-]+)" "" "")
  endif()
  string(REGEX REPLACE "//[^\n]*" "" text "${raw}")

  if(NOT file MATCHES "^(src/sim/trace\\.h|tests/sim/trace_test\\.cc)$")
    scan(hits "${text}" "([.]|->)(BeginAt|EndAt)[(]" raw-span
         "span paired by hand, use sim::ScopedSpan")
  endif()

  if(file MATCHES "^src/(sim|hw|hv)/")
    scan(hits "${text}" "#[ ]*include[ ]*\"src/(${above_${CMAKE_MATCH_1}})/"
         layering "include of a higher-ranked layer")
  endif()

  if(file MATCHES "^src/(sim|hw|hv|vmm|guest|root|services)/")
    if(NOT file STREQUAL "src/sim/hash_index.h")
      scan(hits "${text}" "std::unordered_" determinism
           "unordered container, use std::map, std::set or sim::HashIndex")
    endif()
    if(NOT file MATCHES "^src/sim/rng")
      scan(hits "${text}" "std::chrono" determinism "wall clock")
      scan(hits "${text}" "(^|[^A-Za-z0-9_.>])time[(]" determinism "wall clock")
      scan(hits "${text}" "(^|[^A-Za-z0-9_])s?rand[(]" determinism
           "host randomness")
      scan(hits "${text}" "random_device|mt19937|minstd_rand" determinism
           "host randomness")
    endif()
    scan(hits "${text}" "std::(unordered_)?(multi)?(map|set)<[^,;>]*[*]"
         determinism "container keyed by a pointer")
    scan(hits "${text}" "reinterpret_cast< *(std::)?uintptr_t *>" determinism
         "pointer value as an integer")
  endif()
endforeach()

list(JOIN hits "\n" report)
if(FIXTURES)
  if(NOT marks)
    message(FATAL_ERROR "no line under ${ROOT} is marked `// expect: <rule>`")
  endif()
  # Compare `<file>:<line>: [<rule>]`, without the text after it.
  list(TRANSFORM marks REPLACE "] .*$" "]")
  list(TRANSFORM hits REPLACE "] .*$" "]" OUTPUT_VARIABLE found)
  set(wrong "")
  foreach(mark IN LISTS marks)
    if(NOT mark IN_LIST found)
      string(APPEND wrong "${mark} not reported\n")
    endif()
  endforeach()
  foreach(where IN LISTS found)
    if(NOT where IN_LIST marks)
      string(APPEND wrong "${where} reported but not marked\n")
    endif()
  endforeach()
  if(NOT wrong STREQUAL "")
    message(FATAL_ERROR "${wrong}all reports:\n${report}")
  endif()
  list(LENGTH marks count)
  message(STATUS "${scanned} fixture files: all ${count} marked violations reported")
elseif(hits)
  list(LENGTH hits count)
  message(FATAL_ERROR "${report}\n${count} violation(s) in ${scanned} files")
else()
  message(STATUS "${scanned} files: no violations")
endif()

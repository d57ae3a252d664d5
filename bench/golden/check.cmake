# Runs one bench binary with its default arguments and fails unless its
# output is byte-identical to the checked-in golden file.
#   cmake -DBENCH=<binary> -DGOLDEN=<file> -DACTUAL=<file> -P check.cmake
execute_process(COMMAND "${BENCH}" OUTPUT_VARIABLE actual
                RESULT_VARIABLE rc)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "${BENCH} exited with ${rc}")
endif()
file(READ "${GOLDEN}" expected)
if(NOT actual STREQUAL expected)
  file(WRITE "${ACTUAL}" "${actual}")
  message(FATAL_ERROR "output differs from ${GOLDEN}; actual output in "
                      "${ACTUAL} (diff -u the two)")
endif()

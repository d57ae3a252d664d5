# Runs one example and fails unless it exits 0 and prints OUTCOME, the
# line that reports what the example demonstrated.
#   cmake -DEXAMPLE=<binary> -DOUTCOME=<text> -P check.cmake
execute_process(COMMAND "${EXAMPLE}" OUTPUT_VARIABLE out RESULT_VARIABLE rc)
message("${out}")
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "${EXAMPLE} exited with ${rc}")
endif()
string(FIND "${out}" "${OUTCOME}" at)
if(at EQUAL -1)
  message(FATAL_ERROR "${EXAMPLE} did not print \"${OUTCOME}\"")
endif()

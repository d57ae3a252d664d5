# Runs one smoke command and fails unless it exits 0 and its output matches
# REGEX (a line reporting what the run demonstrated, or a schema marker
# from its output table).
#   cmake -DCOMMAND=<binary> [-DARGS=<arguments>] -DREGEX=<regex> -P check_smoke.cmake
execute_process(COMMAND "${COMMAND}" ${ARGS} OUTPUT_VARIABLE out RESULT_VARIABLE rc)
message("${out}")
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "${COMMAND} exited with ${rc}")
endif()
if(NOT out MATCHES "${REGEX}")
  message(FATAL_ERROR "${COMMAND} printed nothing matching \"${REGEX}\"")
endif()

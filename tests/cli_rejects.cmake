# Run hmcsim_cli with bad input and check that it is rejected the way
# every malformed value is: exit 2 and one line naming the value.
# Usage: cmake -DCLI=<hmcsim_cli> "-DARGS=<arg;arg;...>"
#              "-DMESSAGE=<text>" -P cli_rejects.cmake
execute_process(
    COMMAND ${CLI} ${ARGS}
    RESULT_VARIABLE rc
    OUTPUT_VARIABLE stdout
    ERROR_VARIABLE stderr)
message(STATUS "stdout:\n${stdout}stderr:\n${stderr}")
if(NOT rc EQUAL 2)
    message(FATAL_ERROR "hmcsim_cli exited with ${rc}, expected 2")
endif()
string(FIND "${stderr}" "${MESSAGE}" at)
if(at EQUAL -1)
    message(FATAL_ERROR "stderr lacks '${MESSAGE}'")
endif()

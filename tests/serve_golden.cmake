# Run a serve session and byte-compare its JSONL with the golden file.
# Usage: cmake -DCLI=<hmcsim_cli> -DSESSION=<script> -DEXPECTED=<jsonl>
#              -DOUT=<jsonl> [-DEXPECTED_RC=<code>] [-DSUMMARY=<text>]
#              -P serve_golden.cmake
# EXPECTED_RC is the exit code serve must return (default 0); SUMMARY,
# when given, must appear in serve's stderr.
if(NOT DEFINED EXPECTED_RC)
    set(EXPECTED_RC 0)
endif()
execute_process(
    COMMAND ${CLI} serve --jobs 1 --in ${SESSION} --out ${OUT}
    RESULT_VARIABLE rc
    ERROR_VARIABLE stderr)
message(STATUS "serve stderr:\n${stderr}")
if(NOT rc EQUAL EXPECTED_RC)
    message(FATAL_ERROR "serve exited with ${rc}, expected ${EXPECTED_RC}")
endif()
if(DEFINED SUMMARY)
    string(FIND "${stderr}" "${SUMMARY}" at)
    if(at EQUAL -1)
        message(FATAL_ERROR "serve stderr lacks '${SUMMARY}'")
    endif()
endif()
execute_process(
    COMMAND ${CMAKE_COMMAND} -E compare_files ${EXPECTED} ${OUT}
    RESULT_VARIABLE differs)
if(NOT differs EQUAL 0)
    message(FATAL_ERROR "${OUT} differs from ${EXPECTED}")
endif()

# Run a serve session and byte-compare its JSONL with the golden file.
# Usage: cmake -DCLI=<hmcsim_cli> -DSESSION=<script> -DEXPECTED=<jsonl>
#              -DOUT=<jsonl> -P serve_golden.cmake
execute_process(
    COMMAND ${CLI} serve --jobs 1 --in ${SESSION} --out ${OUT}
    RESULT_VARIABLE rc)
if(NOT rc EQUAL 0)
    message(FATAL_ERROR "serve exited with ${rc}")
endif()
execute_process(
    COMMAND ${CMAKE_COMMAND} -E compare_files ${EXPECTED} ${OUT}
    RESULT_VARIABLE differs)
if(NOT differs EQUAL 0)
    message(FATAL_ERROR "${OUT} differs from ${EXPECTED}")
endif()

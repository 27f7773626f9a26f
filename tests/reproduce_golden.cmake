# The paper suite at ctest scale must print tests/golden/reproduce.txt
# byte for byte: every figure's table, including the cache studies, the
# batch-size tuner and the sensitivity arms that golden_results_gate
# does not pin. On a mismatch, diff reproduce.out against the golden
# file; a deliberate model change regenerates it with the same command.
#
# Usage: cmake -DREPRODUCE=<simr_reproduce> -DGOLDEN=<reproduce.txt>
#              -P reproduce_golden.cmake

execute_process(
    COMMAND ${CMAKE_COMMAND} -E env SIMR_REQUESTS=128
            SIMR_TIMING_REQUESTS=32 SIMR_SEED=42 "${REPRODUCE}"
    OUTPUT_FILE reproduce.out RESULT_VARIABLE rc)
if (NOT rc STREQUAL "0")
    message(FATAL_ERROR "simr_reproduce exited '${rc}'")
endif()
execute_process(COMMAND ${CMAKE_COMMAND} -E compare_files reproduce.out
                        "${GOLDEN}"
                RESULT_VARIABLE differs)
if (differs)
    message(FATAL_ERROR "simr_reproduce output differs from ${GOLDEN}; "
            "see ${CMAKE_CURRENT_BINARY_DIR}/reproduce.out")
endif()

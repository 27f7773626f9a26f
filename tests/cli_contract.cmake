# CLI input contract: every bad flag value must be rejected with a
# message on stderr and exit code 2 -- never an uncaught exception, an
# assertion abort or a silent fallback to a default.
#
# Usage: cmake -DCLI=<path to simr_cli> -P cli_contract.cmake

# (subcommand, flag, value) triples.
set(cases
    cluster --servers 0
    cluster --qps abc
    cluster --qps -5
    cluster --users 0
    cluster --requests 1.5)

list(LENGTH cases n)
math(EXPR last "${n} - 1")
foreach(i RANGE 0 ${last} 3)
    math(EXPR j "${i} + 1")
    math(EXPR k "${i} + 2")
    list(GET cases ${i} cmd)
    list(GET cases ${j} name)
    list(GET cases ${k} value)
    execute_process(COMMAND "${CLI}" ${cmd} ${name} ${value}
                    RESULT_VARIABLE rc OUTPUT_QUIET ERROR_VARIABLE err)
    if (NOT rc STREQUAL "2" OR err STREQUAL "")
        message(SEND_ERROR "simr_cli ${cmd} ${name} ${value}: exit "
                "'${rc}', stderr '${err}' (want exit 2 and a message)")
    else()
        message(STATUS "simr_cli ${cmd} ${name} ${value}: exit 2: ${err}")
    endif()
endforeach()

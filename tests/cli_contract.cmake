# CLI input contract: every bad flag value and every bad SIMR_*
# environment value must be rejected with a message on stderr and exit
# code 2 -- never an uncaught exception, an assertion abort or a silent
# fallback to a default.
#
# Usage: cmake -DCLI=<path to simr_cli> -P cli_contract.cmake

# One invocation per entry: leading SIMR_*=value words set the
# environment, the rest are simr_cli's arguments.
set(cases
    "cluster --servers 0"
    "cluster --qps abc"
    "cluster --qps -5"
    "cluster --users 0"
    "cluster --requests 1.5"
    "timing memc --requests -5"
    "timing memc --requests abc"
    "timing memc --requests 0"
    "timing memc --config bogus"
    "sweep --threads abc"
    "efficiency memc --policy bogus"
    "anatomy social_network --mode bogus"
    "SIMR_THREADS=abc sweep --requests 8")

foreach(case IN LISTS cases)
    separate_arguments(words UNIX_COMMAND "${case}")
    set(env "")
    set(args "")
    foreach(w IN LISTS words)
        if (args STREQUAL "" AND w MATCHES "^SIMR_[A-Z_]+=")
            list(APPEND env "${w}")
        else()
            list(APPEND args "${w}")
        endif()
    endforeach()
    execute_process(COMMAND ${CMAKE_COMMAND} -E env ${env} "${CLI}" ${args}
                    RESULT_VARIABLE rc OUTPUT_QUIET ERROR_VARIABLE err)
    if (NOT rc STREQUAL "2" OR err STREQUAL "")
        message(SEND_ERROR "simr_cli ${case}: exit '${rc}', stderr "
                "'${err}' (want exit 2 and a message)")
    else()
        message(STATUS "simr_cli ${case}: exit 2: ${err}")
    endif()
endforeach()

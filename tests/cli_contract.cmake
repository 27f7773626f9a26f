# CLI input contract: every bad flag value, unknown flag, stray
# positional argument and bad SIMR_* environment value must be rejected
# with a message on stderr and exit code 2 -- never an uncaught
# exception, an assertion abort or a silent fallback to a default.
#
# Usage: cmake -DCLI=<path to simr_cli> -DREPRODUCE=<path to
#              simr_reproduce> -DGATES=<directory of the gate benches>
#              -P cli_contract.cmake

# One invocation per entry: leading SIMR_*=value words set the
# environment, the rest are the program's arguments. After " => " comes
# a regex that stderr must match, naming the reason for the rejection,
# so a case cannot pass by failing earlier for some other reason.
set(cli_cases
    "cluster --servers 0 => --servers: expected .* got '0'"
    "cluster --qps abc => --qps: expected .* got 'abc'"
    "cluster --qps -5 => --qps: expected .* got '-5'"
    "cluster --users 0 => --users: expected .* got '0'"
    "cluster --requests 1.5 => --requests: expected an integer .* got '1.5'"
    "cluster --requets 5 => unknown flag '--requets'"
    "cluster --rpu extra => unexpected argument 'extra'"
    "timing memc --requests -5 => --requests: expected .* got '-5'"
    "timing memc --requests abc => --requests: expected .* got 'abc'"
    "timing memc --requests 0 => --requests: expected .* got '0'"
    "timing memc --requests => no value after '--requests'"
    "timing memc --config bogus => --config: expected one of .* got 'bogus'"
    "timing memc --bogus 3 => unknown flag '--bogus'"
    "timing memc extra --requests 8 => unexpected argument 'extra'"
    "list extra => unexpected argument 'extra'"
    "analyze memc --bogus => unknown flag '--bogus'"
    "tune memc --batch 8 => unknown flag '--batch'"
    "sweep --threads abc => --threads: expected .* got 'abc'"
    "sweep extra => unexpected argument 'extra'"
    "stats memc extra => unexpected argument 'extra'"
    "efficiency memc --policy bogus => --policy: expected one of .* got 'bogus'"
    "efficiency memc --bogus 1 => unknown flag '--bogus'"
    "trace memc --bogus 1 => unknown flag '--bogus'"
    "anatomy social_network --mode bogus => --mode: expected one of .* got 'bogus'"
    "anatomy social_network --bogus => unknown flag '--bogus'"
    "hotspots memc --bogus => unknown flag '--bogus'"
    "SIMR_THREADS=abc sweep --requests 8 => SIMR_THREADS: expected .* got 'abc'")
set(reproduce_cases
    "--bogus => unexpected argument '--bogus'"
    "extra => unexpected argument 'extra'"
    "--only => unexpected argument '--only'"
    "--only nosuchfig => unknown figure 'nosuchfig'"
    "--only fig05_bw_scaling --bogus => unexpected argument '--bogus'"
    "--only fig05_bw_scaling,bogus => unknown figure 'bogus'"
    "SIMR_REQUESTS=abc --only fig05_bw_scaling => SIMR_REQUESTS: expected .* got 'abc'")
# The gate benches take one flag each; the first word names the bench.
set(gate_cases
    "bench_core_speed --verfy => unexpected argument '--verfy'"
    "bench_core_speed --verify extra => unexpected argument 'extra'"
    "bench_obs --verify => unexpected argument '--verify'"
    "bench_obs --verify-journeys --verify-journeys => unexpected argument '--verify-journeys'"
    "bench_sys_scaling --verfy => unexpected argument '--verfy'"
    "bench_sys_scaling extra => unexpected argument 'extra'")

function(expect_rejected program entry)
    string(FIND "${entry}" " => " sep)
    string(SUBSTRING "${entry}" 0 ${sep} case)
    math(EXPR from "${sep} + 4")
    string(SUBSTRING "${entry}" ${from} -1 reason)
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
    get_filename_component(name "${program}" NAME)
    execute_process(COMMAND ${CMAKE_COMMAND} -E env ${env} "${program}"
                            ${args}
                    RESULT_VARIABLE rc OUTPUT_QUIET ERROR_VARIABLE err)
    if (NOT rc STREQUAL "2" OR NOT err MATCHES "${reason}")
        message(SEND_ERROR "${name} ${case}: exit '${rc}', stderr "
                "'${err}' (want exit 2 and a message matching "
                "\"${reason}\")")
    else()
        message(STATUS "${name} ${case}: exit 2: ${err}")
    endif()
endfunction()

foreach(case IN LISTS cli_cases)
    expect_rejected("${CLI}" "${case}")
endforeach()
foreach(case IN LISTS reproduce_cases)
    expect_rejected("${REPRODUCE}" "${case}")
endforeach()
foreach(case IN LISTS gate_cases)
    string(REGEX MATCH "^[^ ]+" gate "${case}")
    string(LENGTH "${gate} " skip)
    string(SUBSTRING "${case}" ${skip} -1 rest)
    expect_rejected("${GATES}/${gate}" "${rest}")
endforeach()

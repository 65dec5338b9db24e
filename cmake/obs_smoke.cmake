# Observability smoke test: a sweep with --metrics-out, --csv-out,
# --trace-out, and --progress all enabled must
#   * produce stdout result tables byte-identical to an unobserved run
#     (instrumentation never perturbs the simulation), at 1, 2, and 8
#     workers under both replay engines, and
#   * actually write all three output files, with a metrics report
#     whose per-leg section is engine- and worker-count-invariant.
#
# Usage: cmake -DDYNEX_CLI=<path-to-dynex> -DWORK_DIR=<scratch dir>
#        -P obs_smoke.cmake

if(NOT DYNEX_CLI)
    message(FATAL_ERROR "pass -DDYNEX_CLI=<path to the dynex binary>")
endif()
if(NOT WORK_DIR)
    message(FATAL_ERROR "pass -DWORK_DIR=<scratch directory>")
endif()
file(MAKE_DIRECTORY ${WORK_DIR})

set(common sweep li --line 4 --refs 100000)

# Blank the report fields that legitimately vary run to run, leaving
# everything the determinism contract covers.
function(scrub_timings text out_var)
    string(REGEX REPLACE
        "\"(replayNs|dmReplayNs|deReplayNs|optReplayNs|trace-load-ns|index-build-ns|workers)\":[0-9]+"
        "\"\\1\":0" text "${text}")
    set(${out_var} "${text}" PARENT_SCOPE)
endfunction()

set(golden_stdout "")
foreach(engine per-leg kernel)
    foreach(threads 1 2 8)
        set(tag ${engine}_t${threads})
        set(metrics ${WORK_DIR}/metrics_${tag}.json)
        set(csv ${WORK_DIR}/table_${tag}.csv)
        set(events ${WORK_DIR}/trace_${tag}.json)

        execute_process(
            COMMAND ${DYNEX_CLI} ${common} --threads ${threads}
                    --replay ${engine}
            OUTPUT_VARIABLE bare
            RESULT_VARIABLE bare_rc)
        if(NOT bare_rc EQUAL 0)
            message(FATAL_ERROR "bare sweep failed (${tag})")
        endif()

        execute_process(
            COMMAND ${DYNEX_CLI} ${common} --threads ${threads}
                    --replay ${engine} --progress
                    --metrics-out ${metrics} --csv-out ${csv}
                    --trace-out ${events}
            OUTPUT_VARIABLE observed
            RESULT_VARIABLE observed_rc
            ERROR_QUIET)
        if(NOT observed_rc EQUAL 0)
            message(FATAL_ERROR "observed sweep failed (${tag})")
        endif()

        if(NOT bare STREQUAL observed)
            message(FATAL_ERROR
                "observability changed the sweep results (${tag})\n"
                "--- bare ---\n${bare}\n--- observed ---\n${observed}")
        endif()
        # The header line reports the worker count; the tables below
        # it must be invariant across engines and worker counts.
        string(REGEX REPLACE "^[^\n]*\n" "" body "${observed}")
        if(golden_stdout STREQUAL "")
            set(golden_stdout "${body}")
        elseif(NOT body STREQUAL golden_stdout)
            message(FATAL_ERROR
                "sweep tables differ across engines/workers (${tag})")
        endif()

        foreach(artifact ${metrics} ${csv} ${events})
            if(NOT EXISTS ${artifact})
                message(FATAL_ERROR "missing output: ${artifact}")
            endif()
        endforeach()

        file(READ ${events} trace_json)
        if(NOT trace_json MATCHES "\"traceEvents\"")
            message(FATAL_ERROR "not a trace-event file: ${events}")
        endif()

        file(READ ${metrics} report)
        scrub_timings("${report}" report)
        # Cut at the counters (replay-chunks legitimately differs
        # between engines); legs onward must be invariant.
        string(REGEX REPLACE ".*\"legs\"" "\"legs\"" legs "${report}")
        if(NOT DEFINED golden_legs)
            set(golden_legs "${legs}")
        elseif(NOT legs STREQUAL golden_legs)
            message(FATAL_ERROR
                "metrics legs differ across engines/workers (${tag})")
        endif()

        message(STATUS "${tag}: results unperturbed, outputs written")
    endforeach()
endforeach()

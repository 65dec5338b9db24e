# Determinism check: the kernel, under --replay kernel and its alias
# --replay batched, must produce CLI sweep output byte-identical to
# the per-leg object models at every worker count.
#
# Usage: cmake -DDYNEX_CLI=<path-to-dynex> -P sweep_determinism.cmake

if(NOT DYNEX_CLI)
    message(FATAL_ERROR "pass -DDYNEX_CLI=<path to the dynex binary>")
endif()

set(common sweep li --line 4 --refs 100000)

foreach(threads 1 2 8)
    execute_process(
        COMMAND ${DYNEX_CLI} ${common} --threads ${threads}
                --replay per-leg
        OUTPUT_VARIABLE per_leg
        RESULT_VARIABLE per_leg_rc)
    if(NOT per_leg_rc EQUAL 0)
        message(FATAL_ERROR
            "per-leg sweep failed (threads=${threads}, rc=${per_leg_rc})")
    endif()

    foreach(engine batched kernel)
        execute_process(
            COMMAND ${DYNEX_CLI} ${common} --threads ${threads}
                    --replay ${engine}
            OUTPUT_VARIABLE candidate
            RESULT_VARIABLE candidate_rc)
        if(NOT candidate_rc EQUAL 0)
            message(FATAL_ERROR
                "${engine} sweep failed (threads=${threads}, "
                "rc=${candidate_rc})")
        endif()

        if(NOT per_leg STREQUAL candidate)
            message(FATAL_ERROR
                "sweep output differs between engines at "
                "threads=${threads}\n"
                "--- per-leg ---\n${per_leg}\n"
                "--- ${engine} ---\n${candidate}")
        endif()
        message(STATUS
            "threads=${threads}: ${engine} byte-identical to per-leg")
    endforeach()
endforeach()

# Determinism check: the kernel, under --replay kernel and its alias
# --replay batched, must produce CLI sweep output byte-identical to
# the per-leg object models at every worker count. The same holds for
# the file-backed path: `li` (100K references) stored as DXT2 and as
# DXT3, where a kernel sweep packs its artifact straight from the
# mapped file and a per-leg sweep decodes the Trace, must give
# byte-identical tables at threads 1/2/8 and lines 4/16, whose bodies
# match the synthetic `li` sweep's.
#
# Usage: cmake -DDYNEX_CLI=<path-to-dynex> -DWORK_DIR=<scratch dir>
#        -P sweep_determinism.cmake

if(NOT DYNEX_CLI)
    message(FATAL_ERROR "pass -DDYNEX_CLI=<path to the dynex binary>")
endif()
if(NOT WORK_DIR)
    message(FATAL_ERROR "pass -DWORK_DIR=<scratch directory>")
endif()
file(REMOVE_RECURSE ${WORK_DIR})
file(MAKE_DIRECTORY ${WORK_DIR})

# Run `dynex sweep ARGN` and store its stdout in out_var.
function(run_sweep out_var)
    execute_process(
        COMMAND ${DYNEX_CLI} sweep ${ARGN}
        OUTPUT_VARIABLE out
        RESULT_VARIABLE rc)
    if(NOT rc EQUAL 0)
        message(FATAL_ERROR "sweep ${ARGN} failed (rc=${rc})")
    endif()
    set(${out_var} "${out}" PARENT_SCOPE)
endfunction()

# A sweep's output without its first line, which names the source.
function(table_body text out_var)
    string(FIND "${text}" "\n" newline)
    math(EXPR start "${newline} + 1")
    string(SUBSTRING "${text}" ${start} -1 body)
    set(${out_var} "${body}" PARENT_SCOPE)
endfunction()

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

# The file-backed path.
execute_process(
    COMMAND ${DYNEX_CLI} gen li ${WORK_DIR}/li.dxt2 --refs 100000
            --stream ifetch
    OUTPUT_QUIET
    RESULT_VARIABLE gen_rc)
execute_process(
    COMMAND ${DYNEX_CLI} convert ${WORK_DIR}/li.dxt2 ${WORK_DIR}/li.dxt3
    OUTPUT_QUIET
    RESULT_VARIABLE convert_rc)
if(NOT gen_rc EQUAL 0 OR NOT convert_rc EQUAL 0)
    message(FATAL_ERROR
        "writing li as DXT2/DXT3 failed (rc=${gen_rc}/${convert_rc})")
endif()

foreach(line 4 16)
    run_sweep(synthetic li --line ${line} --refs 100000 --replay per-leg)
    table_body("${synthetic}" synthetic_body)
    foreach(threads 1 2 8)
        foreach(format dxt2 dxt3)
            set(file ${WORK_DIR}/li.${format})
            run_sweep(per_leg ${file} --line ${line} --threads ${threads}
                      --replay per-leg)
            run_sweep(kernel ${file} --line ${line} --threads ${threads}
                      --replay kernel)
            if(NOT per_leg STREQUAL kernel)
                message(FATAL_ERROR
                    "${format} sweep output differs between engines at "
                    "line=${line} threads=${threads}\n"
                    "--- per-leg ---\n${per_leg}\n"
                    "--- kernel ---\n${kernel}")
            endif()
            table_body("${kernel}" body)
            if(NOT body STREQUAL synthetic_body)
                message(FATAL_ERROR
                    "${format} sweep table differs from the synthetic "
                    "li sweep at line=${line} threads=${threads}\n"
                    "--- synthetic ---\n${synthetic}\n"
                    "--- ${format} ---\n${kernel}")
            endif()
            message(STATUS "line=${line} threads=${threads}: ${format} "
                           "kernel byte-identical to per-leg and to li")
        endforeach()
    endforeach()
endforeach()

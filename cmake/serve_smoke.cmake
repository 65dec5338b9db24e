# Serving smoke test: end-to-end over a real dynex_serve process.
#
# Starts the server on an ephemeral port (discovered via --port-file),
# runs `dynex remote-sweep` against it at 1, 2, and 8 server workers
# under every --replay name (per-leg, kernel, and batched, the kernel's
# alias), and requires the rendered sweep table to be byte-identical
# to a local per-leg (object-model) `dynex sweep` of the benchmark —
# only the header line (which names the serving address / worker
# count) may differ. A second remote sweep against the warm server
# must also match, exercising the TraceStore hit path. The server is
# killed (and its exit awaited) whether the checks pass or not.
#
# Usage: cmake -DDYNEX_CLI=<dynex> -DDYNEX_SERVE=<dynex_serve>
#        -DWORK_DIR=<scratch dir> -P serve_smoke.cmake

if(NOT DYNEX_CLI)
    message(FATAL_ERROR "pass -DDYNEX_CLI=<path to the dynex binary>")
endif()
if(NOT DYNEX_SERVE)
    message(FATAL_ERROR "pass -DDYNEX_SERVE=<path to dynex_serve>")
endif()
if(NOT WORK_DIR)
    message(FATAL_ERROR "pass -DWORK_DIR=<scratch directory>")
endif()
file(REMOVE_RECURSE ${WORK_DIR})
file(MAKE_DIRECTORY ${WORK_DIR})

set(bench espresso)
set(refs 100000)
set(line 4)

function(strip_header text out_var)
    string(REGEX REPLACE "^[^\n]*\n" "" text "${text}")
    set(${out_var} "${text}" PARENT_SCOPE)
endfunction()

# The local golden: the object models' sweep.
execute_process(
    COMMAND ${DYNEX_CLI} sweep ${bench} --line ${line}
            --refs ${refs} --replay per-leg
    OUTPUT_VARIABLE local_out
    RESULT_VARIABLE local_rc)
if(NOT local_rc EQUAL 0)
    message(FATAL_ERROR "local per-leg sweep failed")
endif()
strip_header("${local_out}" golden)

function(stop_server pid_file)
    if(EXISTS ${pid_file})
        file(READ ${pid_file} server_pid)
        string(STRIP "${server_pid}" server_pid)
        execute_process(
            COMMAND sh -c "kill ${server_pid} 2>/dev/null; \
for i in $(seq 1 50); do \
  kill -0 ${server_pid} 2>/dev/null || exit 0; sleep 0.2; \
done; kill -9 ${server_pid} 2>/dev/null; true")
    endif()
endfunction()

foreach(workers 1 2 8)
    set(port_file ${WORK_DIR}/port_w${workers})
    set(pid_file ${WORK_DIR}/pid_w${workers})
    execute_process(
        COMMAND sh -c "'${DYNEX_SERVE}' --bench ${bench} \
--refs ${refs} --workers ${workers} --port-file '${port_file}' \
>'${WORK_DIR}/serve_w${workers}.log' 2>&1 & echo $! > '${pid_file}'"
        RESULT_VARIABLE spawn_rc)
    if(NOT spawn_rc EQUAL 0)
        message(FATAL_ERROR "could not spawn dynex_serve (${workers})")
    endif()

    # Wait for the server to publish its ephemeral port.
    set(port "")
    foreach(attempt RANGE 50)
        if(EXISTS ${port_file})
            file(READ ${port_file} port)
            string(STRIP "${port}" port)
            if(NOT port STREQUAL "")
                break()
            endif()
        endif()
        execute_process(COMMAND ${CMAKE_COMMAND} -E sleep 0.2)
    endforeach()
    if(port STREQUAL "")
        stop_server(${pid_file})
        message(FATAL_ERROR "server never published a port (${workers})")
    endif()

    foreach(engine per-leg batched kernel)
        # Twice per engine: the second request runs against the warm
        # TraceStore and must produce the identical table.
        foreach(round cold warm)
            set(tag w${workers}_${engine}_${round})
            execute_process(
                COMMAND ${DYNEX_CLI} remote-sweep ${bench}
                        --port ${port} --line ${line} --replay ${engine}
                OUTPUT_VARIABLE remote_out
                RESULT_VARIABLE remote_rc)
            if(NOT remote_rc EQUAL 0)
                stop_server(${pid_file})
                message(FATAL_ERROR "remote sweep failed (${tag})")
            endif()
            strip_header("${remote_out}" remote_body)
            if(NOT remote_body STREQUAL golden)
                stop_server(${pid_file})
                message(FATAL_ERROR
                    "remote sweep differs from local golden (${tag})\n"
                    "--- local ---\n${golden}\n"
                    "--- remote ---\n${remote_body}")
            endif()
            message(STATUS "${tag}: identical to the local sweep")
        endforeach()
    endforeach()

    stop_server(${pid_file})
endforeach()

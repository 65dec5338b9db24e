# Serving smoke test: end-to-end over a real dynex_serve process.
#
# Phase 1 serves a synthetic benchmark. It starts the server on an
# ephemeral port (discovered via --port-file), runs `dynex
# remote-sweep` against it at 1, 2, and 8 server workers under every
# --replay name (per-leg, kernel, and batched, the kernel's alias),
# and requires the rendered sweep table to be byte-identical to a
# local per-leg (object-model) `dynex sweep` of the benchmark — only
# the header line (which names the serving address / worker count) may
# differ.
#
# Phase 2 serves trace files, the path a file-backed daemon takes:
# `dynex gen` writes one trace, `dynex convert` turns it into DXT2 and
# DXT3, and one server serves both with --trace. Each file is swept
# remotely under kernel (its artifact packed straight from the file)
# and per-leg (its Trace decoded on demand), and each table must be
# byte-identical to a local `dynex sweep FILE --replay per-leg`.
#
# Every table is requested twice: the second request runs against the
# warm TraceStore and must produce the identical table. The server is
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

# The local golden of `dynex sweep ARGS`: the object models' sweep.
function(local_golden out_var)
    execute_process(
        COMMAND ${DYNEX_CLI} sweep ${ARGN} --line ${line} --replay per-leg
        OUTPUT_VARIABLE local_out
        RESULT_VARIABLE local_rc)
    if(NOT local_rc EQUAL 0)
        message(FATAL_ERROR "local per-leg sweep failed (${ARGN})")
    endif()
    strip_header("${local_out}" golden)
    set(${out_var} "${golden}" PARENT_SCOPE)
endfunction()

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

# Start dynex_serve with ARGN under @tag; sets port in the caller.
function(start_server tag)
    set(port_file ${WORK_DIR}/port_${tag})
    set(pid_file ${WORK_DIR}/pid_${tag})
    string(REPLACE ";" " " serve_args "${ARGN}")
    execute_process(
        COMMAND sh -c "'${DYNEX_SERVE}' ${serve_args} \
--port-file '${port_file}' >'${WORK_DIR}/serve_${tag}.log' 2>&1 & \
echo $! > '${pid_file}'"
        RESULT_VARIABLE spawn_rc)
    if(NOT spawn_rc EQUAL 0)
        message(FATAL_ERROR "could not spawn dynex_serve (${tag})")
    endif()

    # Wait for the server to publish its ephemeral port.
    set(served_port "")
    foreach(attempt RANGE 50)
        if(EXISTS ${port_file})
            file(READ ${port_file} served_port)
            string(STRIP "${served_port}" served_port)
            if(NOT served_port STREQUAL "")
                break()
            endif()
        endif()
        execute_process(COMMAND ${CMAKE_COMMAND} -E sleep 0.2)
    endforeach()
    if(served_port STREQUAL "")
        stop_server(${pid_file})
        message(FATAL_ERROR "server never published a port (${tag})")
    endif()
    set(port ${served_port} PARENT_SCOPE)
endfunction()

# Remote-sweep @name under @engine cold, then warm, against the server
# started under @tag, and require each table to equal @golden.
function(expect_remote_sweeps tag name engine golden)
    foreach(round cold warm)
        set(check ${tag}_${name}_${engine}_${round})
        execute_process(
            COMMAND ${DYNEX_CLI} remote-sweep ${name}
                    --port ${port} --line ${line} --replay ${engine}
            OUTPUT_VARIABLE remote_out
            RESULT_VARIABLE remote_rc)
        if(NOT remote_rc EQUAL 0)
            stop_server(${WORK_DIR}/pid_${tag})
            message(FATAL_ERROR "remote sweep failed (${check})")
        endif()
        strip_header("${remote_out}" remote_body)
        if(NOT remote_body STREQUAL golden)
            stop_server(${WORK_DIR}/pid_${tag})
            message(FATAL_ERROR
                "remote sweep differs from local golden (${check})\n"
                "--- local ---\n${golden}\n"
                "--- remote ---\n${remote_body}")
        endif()
        message(STATUS "${check}: identical to the local sweep")
    endforeach()
endfunction()

# Phase 1: a synthetic benchmark at 1, 2 and 8 workers.
local_golden(golden ${bench} --refs ${refs})
foreach(workers 1 2 8)
    set(tag w${workers})
    start_server(${tag} --bench ${bench} --refs ${refs}
                 --workers ${workers})
    foreach(engine per-leg batched kernel)
        expect_remote_sweeps(${tag} ${bench} ${engine} "${golden}")
    endforeach()
    stop_server(${WORK_DIR}/pid_${tag})
endforeach()

# Phase 2: one generated trace served from DXT2 and DXT3 files.
set(gen_trace li)
execute_process(
    COMMAND ${DYNEX_CLI} gen ${gen_trace} ${WORK_DIR}/gen.dxt
            --refs ${refs}
    OUTPUT_QUIET
    RESULT_VARIABLE gen_rc)
if(NOT gen_rc EQUAL 0)
    message(FATAL_ERROR "dynex gen failed")
endif()
set(served_args --workers 2)
foreach(format dxt2 dxt3)
    execute_process(
        COMMAND ${DYNEX_CLI} convert ${WORK_DIR}/gen.dxt
                ${WORK_DIR}/file_${format}.${format} --to ${format}
        OUTPUT_QUIET
        RESULT_VARIABLE convert_rc)
    if(NOT convert_rc EQUAL 0)
        message(FATAL_ERROR "dynex convert to ${format} failed")
    endif()
    list(APPEND served_args --trace ${WORK_DIR}/file_${format}.${format})
endforeach()
start_server(files ${served_args})
foreach(format dxt2 dxt3)
    local_golden(file_golden ${WORK_DIR}/file_${format}.${format})
    foreach(engine kernel per-leg)
        expect_remote_sweeps(files file_${format} ${engine}
                             "${file_golden}")
    endforeach()
endforeach()
stop_server(${WORK_DIR}/pid_files)

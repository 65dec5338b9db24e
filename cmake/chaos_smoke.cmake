# Chaos smoke test: client resilience under seeded fault injection.
#
# Golden: `dynex remote-sweep --replay per-leg` (the object models)
# against a clean dynex_serve. Then the same sweep, under
# `--replay batched` (the kernel's alias), runs against a server
# injecting forced BUSY sheds,
# trace-load failures, and response truncation (--chaos-spec with a
# fixed --chaos-seed), with the client armed with retries. The
# retried result must be byte-identical to the golden — chaos may
# slow the request down, never change its answer. A control run
# WITHOUT retries against the same chaos spec must fail, proving the
# faults actually fired and it is the retry policy doing the work.
#
# Usage: cmake -DDYNEX_CLI=<dynex> -DDYNEX_SERVE=<dynex_serve>
#        -DWORK_DIR=<scratch dir> -P chaos_smoke.cmake

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
set(refs 20000)
set(line 4)

function(strip_header text out_var)
    string(REGEX REPLACE "^[^\n]*\n" "" text "${text}")
    set(${out_var} "${text}" PARENT_SCOPE)
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

function(start_server tag out_port extra_args)
    set(port_file ${WORK_DIR}/port_${tag})
    set(pid_file ${WORK_DIR}/pid_${tag})
    execute_process(
        COMMAND sh -c "'${DYNEX_SERVE}' --bench ${bench} --refs ${refs} \
--workers 1 ${extra_args} --port-file '${port_file}' \
>'${WORK_DIR}/serve_${tag}.log' 2>&1 & echo $! > '${pid_file}'"
        RESULT_VARIABLE spawn_rc)
    if(NOT spawn_rc EQUAL 0)
        message(FATAL_ERROR "could not spawn dynex_serve (${tag})")
    endif()
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
        message(FATAL_ERROR "server never published a port (${tag})")
    endif()
    set(${out_port} "${port}" PARENT_SCOPE)
endfunction()

# --- Golden: the sweep answer from a clean server. ---
start_server(clean clean_port "")
execute_process(
    COMMAND ${DYNEX_CLI} remote-sweep ${bench} --port ${clean_port}
            --line ${line} --replay per-leg
    OUTPUT_VARIABLE clean_out
    RESULT_VARIABLE clean_rc)
stop_server(${WORK_DIR}/pid_clean)
if(NOT clean_rc EQUAL 0)
    message(FATAL_ERROR "clean remote sweep failed (rc ${clean_rc})")
endif()
strip_header("${clean_out}" golden)

# --- Chaos server: every fault class armed. ---
set(chaos_args "--chaos-seed 42 --chaos-spec \
busy=0.25,load-fail=0.3,trunc=0.2")
start_server(chaos chaos_port "${chaos_args}")

# Control: without retries the very first injected fault is terminal.
# Probe until a run fails (each probe re-rolls the seeded chaos dice);
# with these probabilities a fault-free run of 8 straight probes is
# (<0.6)^8 — if every probe succeeds, injection is not happening.
set(saw_fault FALSE)
foreach(probe RANGE 1 8)
    execute_process(
        COMMAND ${DYNEX_CLI} remote-sweep ${bench} --port ${chaos_port}
                --line ${line} --replay batched
        OUTPUT_VARIABLE probe_out
        RESULT_VARIABLE probe_rc)
    if(NOT probe_rc EQUAL 0)
        set(saw_fault TRUE)
        break()
    endif()
endforeach()
if(NOT saw_fault)
    stop_server(${WORK_DIR}/pid_chaos)
    message(FATAL_ERROR
        "8 retry-less sweeps all succeeded under chaos — fault "
        "injection is not firing")
endif()

# The real check: retries must survive the chaos and produce the
# byte-identical table, several times in a row.
foreach(round 1 2 3)
    execute_process(
        COMMAND ${DYNEX_CLI} remote-sweep ${bench} --port ${chaos_port}
                --line ${line} --replay batched
                --retries 12 --backoff-ms 5 --client-id chaos-smoke
        OUTPUT_VARIABLE chaos_sweep_out
        RESULT_VARIABLE chaos_sweep_rc)
    if(NOT chaos_sweep_rc EQUAL 0)
        stop_server(${WORK_DIR}/pid_chaos)
        message(FATAL_ERROR
            "retrying sweep failed under chaos (round ${round}, "
            "rc ${chaos_sweep_rc})")
    endif()
    strip_header("${chaos_sweep_out}" chaos_body)
    if(NOT chaos_body STREQUAL golden)
        stop_server(${WORK_DIR}/pid_chaos)
        message(FATAL_ERROR
            "sweep under chaos differs from the clean golden "
            "(round ${round})\n--- clean ---\n${golden}\n"
            "--- chaos ---\n${chaos_body}")
    endif()
    message(STATUS "round ${round}: chaos sweep identical to golden")
endforeach()

stop_server(${WORK_DIR}/pid_chaos)

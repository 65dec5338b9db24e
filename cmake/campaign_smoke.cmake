# Campaign smoke test: the workload subsystem end to end over real
# processes.
#
# Generates a trace, exports it to the external text format, and runs
# a campaign whose spec imports that file and sweeps two models over a
# custom size axis:
#   - `dynex campaign check` validates the spec;
#   - `dynex campaign run` locally at 1, 2, and 8 worker threads under
#     `engine batched` (an alias of the kernel) and `engine kernel` —
#     all six JSON+CSV report pairs must be byte-identical to the
#     single-threaded per-leg (object-model) golden (the engine name is
#     normalized away);
#   - `dynex campaign run --port P` against a live dynex_serve daemon
#     (serving nothing: every trace arrives by PUT) must reproduce the
#     local reports byte for byte, cold and warm.
# The server is killed (and its exit awaited) whether the checks pass
# or not.
#
# Usage: cmake -DDYNEX_CLI=<dynex> -DDYNEX_SERVE=<dynex_serve>
#        -DWORK_DIR=<scratch dir> -P campaign_smoke.cmake

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

function(run_cli)
    execute_process(COMMAND ${DYNEX_CLI} ${ARGN}
        RESULT_VARIABLE rc OUTPUT_VARIABLE out ERROR_VARIABLE err)
    if(NOT rc EQUAL 0)
        message(FATAL_ERROR "dynex ${ARGN} failed (${rc}):\n${out}${err}")
    endif()
endfunction()

# An imported external-format trace is the campaign's subject: gen a
# benchmark, convert it to the text format, and let the spec's
# `trace import` pull it back in.
run_cli(gen espresso ${WORK_DIR}/espresso.dxt2 --refs 50000)
run_cli(convert ${WORK_DIR}/espresso.dxt2 ${WORK_DIR}/espresso.txt
        --to text)

# The spec: one imported trace, two models, a three-point size axis.
# Output paths are rewritten per run below.
string(ASCII 59 semi) # a literal ';' CMake will not re-escape
set(spec_template "campaign \"smoke\" {
  trace import \"${WORK_DIR}/espresso.txt\" format text as espresso${semi}
  models dm, dynex${semi}
  sizes 1KB, 2KB, 4KB${semi}
  lines 4${semi}
  engine @ENGINE@${semi}
  output json \"@OUT@.json\"${semi}
  output csv \"@OUT@.csv\"${semi}
}
")

function(write_spec engine out spec_file)
    string(REPLACE "@ENGINE@" "${engine}" text "${spec_template}")
    string(REPLACE "@OUT@" "${out}" text "${text}")
    file(WRITE ${spec_file} "${text}")
endfunction()

write_spec(per-leg ${WORK_DIR}/golden ${WORK_DIR}/golden.dxc)
run_cli(campaign check ${WORK_DIR}/golden.dxc)

# Local golden at 1 worker, per-leg.
run_cli(campaign run ${WORK_DIR}/golden.dxc --threads 1)
file(READ ${WORK_DIR}/golden.json golden_json)
file(READ ${WORK_DIR}/golden.csv golden_csv)

# The engine name is part of the JSON report; normalize it so kernel
# runs compare against the per-leg golden.
function(check_reports tag out)
    file(READ ${out}.json json)
    file(READ ${out}.csv csv)
    string(REPLACE "\"engine\":\"kernel\"" "\"engine\":\"per-leg\""
           json "${json}")
    if(NOT json STREQUAL golden_json)
        message(FATAL_ERROR "JSON report differs (${tag})")
    endif()
    if(NOT csv STREQUAL golden_csv)
        message(FATAL_ERROR "CSV report differs (${tag})")
    endif()
    message(STATUS "${tag}: byte-identical reports")
endfunction()

foreach(engine batched kernel)
    foreach(threads 1 2 8)
        set(tag local_${engine}_t${threads})
        set(out ${WORK_DIR}/${tag})
        write_spec(${engine} ${out} ${out}.dxc)
        run_cli(campaign run ${out}.dxc --threads ${threads})
        check_reports(${tag} ${out})
    endforeach()
endforeach()

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

# The remote leg: a daemon serving no traces of its own — the
# campaign uploads the imported trace by PUT and sweeps the custom
# axis remotely. Reports must match the local golden byte for byte,
# cold and warm (the warm re-upload must not reuse a stale decode).
set(port_file ${WORK_DIR}/port)
set(pid_file ${WORK_DIR}/pid)
execute_process(
    COMMAND sh -c "'${DYNEX_SERVE}' --bench doduc --workers 2 \
--port-file '${port_file}' >'${WORK_DIR}/serve.log' 2>&1 & \
echo $! > '${pid_file}'"
    RESULT_VARIABLE spawn_rc)
if(NOT spawn_rc EQUAL 0)
    message(FATAL_ERROR "could not spawn dynex_serve")
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
    message(FATAL_ERROR "server never published a port")
endif()

foreach(round cold warm)
    set(tag remote_batched_${round})
    set(out ${WORK_DIR}/${tag})
    write_spec(batched ${out} ${out}.dxc)
    execute_process(
        COMMAND ${DYNEX_CLI} campaign run ${out}.dxc --port ${port}
        RESULT_VARIABLE remote_rc
        OUTPUT_VARIABLE remote_out ERROR_VARIABLE remote_err)
    if(NOT remote_rc EQUAL 0)
        stop_server(${pid_file})
        message(FATAL_ERROR
            "remote campaign failed (${tag}):\n${remote_out}${remote_err}")
    endif()
    check_reports(${tag} ${out})
endforeach()

stop_server(${pid_file})

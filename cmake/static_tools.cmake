# Static-link check: dynex, dynex_serve and dynex_loadgen must start
# without the dynamic loader. Each runs `--help` under LD_DEBUG=libs:
# a dynamically linked binary has the loader print its library search
# to stderr, a static one has no loader, so nothing may reach stderr.
#
# Usage: cmake -DDYNEX_CLI=<dynex> -DDYNEX_SERVE=<dynex_serve>
#        -DDYNEX_LOADGEN=<dynex_loadgen> -P static_tools.cmake

set(ENV{LD_DEBUG} libs)
foreach(tool DYNEX_CLI DYNEX_SERVE DYNEX_LOADGEN)
    if(NOT ${tool})
        message(FATAL_ERROR "pass -D${tool}=<path to the binary>")
    endif()
    execute_process(
        COMMAND ${${tool}} --help
        RESULT_VARIABLE rc
        OUTPUT_QUIET
        ERROR_VARIABLE loader)
    if(NOT rc EQUAL 0)
        message(FATAL_ERROR "${${tool}} --help exited ${rc}")
    endif()
    if(NOT loader STREQUAL "")
        message(FATAL_ERROR
            "${${tool}} is not statically linked; the loader wrote:\n"
            "${loader}")
    endif()
endforeach()
message(STATUS "dynex, dynex_serve and dynex_loadgen start without "
               "the dynamic loader")

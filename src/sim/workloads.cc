#include "sim/workloads.h"

#include <cstdlib>

#include "tracegen/spec.h"
#include "util/logging.h"

namespace dynex
{

namespace
{

constexpr Count kBuiltinDefaultRefs = 2'000'000;

/** The first @p refs references of one kind, named after the
 * benchmark plus @p suffix (".ifetch" or ".data"). */
Trace
oneKind(const std::string &name, Count refs, RefKinds keep,
        const char *suffix)
{
    Trace trace = makeSpecTrace(name, refs, keep);
    trace.setName(trace.name() + suffix);
    return trace;
}

} // namespace

Count
Workloads::defaultRefs()
{
    if (const char *env = std::getenv("DYNEX_REFS")) {
        const auto value = std::strtoull(env, nullptr, 10);
        if (value > 0)
            return value;
        DYNEX_WARN("ignoring invalid DYNEX_REFS='", env, "'");
    }
    return kBuiltinDefaultRefs;
}

Trace
Workloads::mixed(const std::string &name, Count refs)
{
    return makeSpecTrace(name, refs);
}

Trace
Workloads::instructions(const std::string &name, Count refs)
{
    return oneKind(name, refs, RefKinds::Instructions, ".ifetch");
}

Trace
Workloads::data(const std::string &name, Count refs)
{
    return oneKind(name, refs, RefKinds::Data, ".data");
}

} // namespace dynex

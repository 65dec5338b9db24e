/**
 * @file
 * Workload access for experiments: generates suite traces on demand,
 * splits reference streams, and memoizes the most recent traces so
 * sweeps over one benchmark do not regenerate it per configuration.
 */

#ifndef DYNEX_SIM_WORKLOADS_H
#define DYNEX_SIM_WORKLOADS_H

#include <memory>
#include <string>

#include "trace/trace.h"

namespace dynex
{

/**
 * Trace provider with a tiny LRU memo (traces are tens of MB; only a
 * couple are kept alive).
 *
 * The default reference count mirrors the paper's "first 10 million
 * references" methodology scaled for bench runtime; override with the
 * DYNEX_REFS environment variable.
 */
class Workloads
{
  public:
    /** The default per-benchmark reference budget (DYNEX_REFS or the
     * built-in default). */
    static Count defaultRefs();

    /** The benchmark's mixed instruction+data stream, @p refs long. */
    static std::shared_ptr<const Trace> mixed(const std::string &name,
                                              Count refs);

    /** The first @p refs instruction fetches of the benchmark. */
    static std::shared_ptr<const Trace> instructions(
        const std::string &name, Count refs);

    /**
     * instructions(), generated afresh: neither the trace nor the mixed
     * stream it is filtered from enters the memo, so the caller holds
     * the only reference. For a caller that keeps what it derives from
     * the trace rather than the trace (the server's TraceStore keeps
     * the replay artifact and accounts for it).
     */
    static std::shared_ptr<const Trace> generateInstructions(
        const std::string &name, Count refs);

    /** The first @p refs data references of the benchmark. */
    static std::shared_ptr<const Trace> data(const std::string &name,
                                             Count refs);

    /** Drop every memoized trace (tests use this to bound memory). */
    static void dropCache();
};

} // namespace dynex

#endif // DYNEX_SIM_WORKLOADS_H

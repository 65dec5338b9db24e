/**
 * @file
 * Trace replay: feed a trace through cache models and collect their
 * statistics, including the paper's standard three-way comparison
 * (conventional direct-mapped vs dynamic exclusion vs optimal).
 */

#ifndef DYNEX_SIM_RUNNER_H
#define DYNEX_SIM_RUNNER_H

#include <functional>
#include <string>
#include <type_traits>

#include "cache/cache.h"
#include "cache/dynamic_exclusion.h"
#include "cache/hierarchy.h"
#include "trace/next_use.h"
#include "trace/trace.h"

namespace dynex
{

/**
 * Fault-injection point for the sweep engines (tests and the CLI's
 * --inject-fault flag). When set, both engines invoke it before each
 * (benchmark, cache size) leg of every sweep, and the suite sweeps,
 * on the size and the line-size axis alike, also invoke it once per
 * benchmark with size_bytes == 0 ("setup") before loading the trace;
 * single-trace sweeps make no setup call. It may
 * throw (typically StatusError) to make that leg fail. Set it before a
 * sweep starts; it is read concurrently while one runs.
 */
using SweepFaultHook =
    std::function<void(const std::string &bench, std::uint64_t size_bytes)>;

/** Install @p hook (empty restores "no injection"). */
void setSweepFaultHook(SweepFaultHook hook);

/** The installed hook; empty when no injection is active. */
const SweepFaultHook &sweepFaultHook();

/** Replay @p trace through @p cache (ticks are trace positions). */
CacheStats runTrace(CacheModel &cache, const Trace &trace);

/**
 * Statically-dispatched replay: the hot loop for known model types.
 *
 * When @p Model is the concrete (final) cache class rather than the
 * CacheModel base, the compiler knows the dynamic type at every
 * access() call, so the per-reference virtual doAccess dispatch is
 * hoisted out of the loop and the model body inlines into it. All leaf
 * cache models in the library are final for exactly this reason. Use
 * this from replay-bound code (runTriad, the microbenches); the
 * virtual runTrace overload above remains for heterogeneous callers
 * that only hold a CacheModel&.
 */
template <typename Model>
CacheStats
replayTrace(Model &cache, const Trace &trace)
{
    static_assert(std::is_base_of_v<CacheModel, Model>,
                  "replayTrace requires a CacheModel");
    static_assert(!std::is_same_v<CacheModel, Model> &&
                      std::is_final_v<Model>,
                  "replayTrace only devirtualizes for final leaf "
                  "models; use runTrace for a CacheModel&");
    const MemRef *refs = trace.records().data();
    const std::size_t n = trace.size();
    for (std::size_t i = 0; i < n; ++i)
        cache.access(refs[i], i);
    return cache.stats();
}

/** Replay @p trace through a two-level hierarchy. */
HierarchyStats runTrace(TwoLevelCache &hierarchy, const Trace &trace);

/** Results of the three-way comparison on one trace. */
struct TriadResult
{
    CacheStats dm;   ///< conventional direct-mapped
    CacheStats de;   ///< dynamic exclusion
    CacheStats opt;  ///< optimal direct-mapped with bypass
    /** Dynamic exclusion's FSM transition counts. */
    FsmEventCounts deEvents;

    double dmMissPct() const { return dm.missPercent(); }
    double deMissPct() const { return de.missPercent(); }
    double optMissPct() const { return opt.missPercent(); }

    /** Percent miss reduction of dynamic exclusion vs direct-mapped. */
    double deImprovementPct() const;

    /** Percent miss reduction of the optimal cache vs direct-mapped. */
    double optImprovementPct() const;
};

/**
 * Run the paper's standard trio on one trace.
 *
 * @param trace the reference stream.
 * @param index a RunStart-mode next-use oracle for @p trace at
 *        @p line_bytes granularity (shared across calls so sweeps do
 *        not rebuild it per size).
 * @param size_bytes cache capacity.
 * @param line_bytes cache line size.
 * @param de_config dynamic-exclusion knobs.
 */
TriadResult runTriad(const Trace &trace, const NextUseIndex &index,
                     std::uint64_t size_bytes, std::uint32_t line_bytes,
                     const DynamicExclusionConfig &de_config = {});

} // namespace dynex

#endif // DYNEX_SIM_RUNNER_H

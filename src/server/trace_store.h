/**
 * @file
 * TraceStore: the server's in-memory cache of loaded traces and their
 * replay artifacts (packed view plus RunStart next-use index, per line
 * granularity), so repeated simulation queries skip DXT parsing and
 * artifact builds entirely.
 *
 * Guarantees:
 *   - Single-flight loading: concurrent requests for the same trace
 *     (or the same (trace, line) artifact) block on one underlying
 *     load/build; the loader runs exactly once per miss, never once
 *     per waiter.
 *   - LRU byte budget: entries are charged their trace + artifact
 *     footprint (the trace part drops to its encoded on-disk size when
 *     a SizeProbe is installed and reports a smaller figure, so a
 *     DXT3-backed store holds more references per budget byte); when
 *     the resident total exceeds the budget, the
 *     least-recently-used ready entries are evicted (in strict LRU
 *     order) until it fits. In-flight entries and the entry being
 *     returned are never evicted; callers hold shared_ptrs, so an
 *     evicted trace stays valid for requests already using it.
 *   - Failed loads are not cached: every waiter of the failing flight
 *     receives the same Status, and the next request retries.
 *
 * Counters flow two ways: the store's own snapshot (counters()) for
 * the STATS response, and — when an obs::MetricsCollector is
 * installed — the shared Counter shards (TraceLoad*,
 * StoreHits/StoreMisses/StoreEvictions; buildReplayArtifact charges
 * IndexBuild*) for the server's run report.
 */

#ifndef DYNEX_SERVER_TRACE_STORE_H
#define DYNEX_SERVER_TRACE_STORE_H

#include <condition_variable>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <string>

#include "sim/kernel.h"
#include "trace/trace.h"
#include "util/status.h"

namespace dynex
{
namespace server
{

/** One warm (trace, line granularity) working set. */
struct IndexedTrace
{
    std::shared_ptr<const Trace> trace;
    std::shared_ptr<const ReplayArtifact> artifact;
};

class TraceStore
{
  public:
    /** Resolves a trace name to its contents; invoked off-lock, at
     * most once per concurrent miss. */
    using Loader = std::function<Result<Trace>(const std::string &name)>;

    /**
     * Optional probe for a trace's *encoded* byte size (its on-disk
     * DXT2/DXT3 footprint); 0 means unknown. When installed and the
     * encoded size is smaller than the decoded in-memory charge, the
     * entry is charged the encoded size against the byte budget — the
     * budget then expresses "bytes of trace files served warm", so a
     * compressed store holds proportionally more references. Invoked
     * off-lock next to the loader, at most once per completed load.
     */
    using SizeProbe = std::function<std::uint64_t(const std::string &name)>;

    /** Point-in-time counter values (monotonic except residentBytes
     * and entries). */
    struct Counters
    {
        std::uint64_t traceHits = 0;   ///< trace ready on arrival
        std::uint64_t traceMisses = 0; ///< lookups that started a load
        std::uint64_t traceLoads = 0;  ///< loader invocations completed
        std::uint64_t loadFailures = 0;
        std::uint64_t indexHits = 0;   ///< artifact ready on arrival
        std::uint64_t indexBuilds = 0; ///< artifact builds completed
        std::uint64_t singleFlightWaits = 0; ///< joined an in-flight op
        std::uint64_t evictions = 0;
        std::uint64_t residentBytes = 0;
        std::uint64_t entries = 0;
        std::uint64_t encodedHits = 0; ///< loads charged at encoded size
        std::uint64_t bytesSaved = 0;  ///< decoded minus charged bytes
    };

    TraceStore(Loader loader, std::uint64_t budget_bytes,
               SizeProbe size_probe = {});

    TraceStore(const TraceStore &) = delete;
    TraceStore &operator=(const TraceStore &) = delete;

    /** The trace, loading it on first use (single-flight). */
    Result<std::shared_ptr<const Trace>> trace(const std::string &name);

    /**
     * The trace plus its replay artifact at @p line_bytes, building it
     * on first use (single-flight per (name, line)). A build that
     * throws is returned as its Status to every waiter and is not
     * cached.
     */
    Result<IndexedTrace> indexed(const std::string &name,
                                 std::uint32_t line_bytes);

    /** True when @p name is warm (loaded and not evicted). */
    bool resident(const std::string &name) const;

    Counters counters() const;
    std::uint64_t budgetBytes() const { return budget; }

  private:
    struct Artifact;
    struct Entry;

    /** Evict LRU ready entries until the budget fits; @p keep is the
     * entry being returned and is never evicted. */
    void evictIfNeededLocked(const Entry *keep);

    /** The size probe's figure for @p name; 0 when there is no probe
     * or it throws. */
    std::uint64_t probeEncoded(const std::string &name) const;

    /** Charge for @p trace under the probe; bumps the saved-bytes
     * tallies when the encoded size wins. Caller holds the lock. */
    std::uint64_t chargeForLocked(const Trace &trace,
                                  std::uint64_t encoded_bytes);

    Loader loader;
    SizeProbe sizeProbe;
    const std::uint64_t budget;

    mutable std::mutex storeMutex;
    /** One store-wide wakeup for single-flight waiters: completions
     * are rare relative to waits, so a shared cv keeps every slot's
     * lifetime trivial. */
    std::condition_variable storeCv;
    std::map<std::string, std::shared_ptr<Entry>> entries;
    std::uint64_t useClock = 0;
    Counters tallies;
};

} // namespace server
} // namespace dynex

#endif // DYNEX_SERVER_TRACE_STORE_H

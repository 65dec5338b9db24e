/**
 * @file
 * TraceStore: the server's in-memory cache of replay artifacts (packed
 * view plus RunStart next-use index, per trace and line granularity),
 * so repeated sweeps skip decoding and artifact builds entirely, and
 * of the decoded Traces that only some requests need.
 *
 * An entry is one trace's artifacts plus, lazily, its Trace:
 *   - An artifact of a trace backed by a DXT1/DXT2/DXT3 file is packed
 *     from the file block by block (buildReplayArtifact(path, line)),
 *     so a kernel sweep never builds the 16 B/ref Trace. Any other
 *     trace (synthetic, uploaded, read from a din text file) is packed
 *     from its Trace, and only the artifact is kept. Whatever the
 *     source, an artifact built while the entry's Trace is loaded is
 *     packed from that Trace, so nothing is decoded or generated
 *     twice: the resolver hands back a producer of the Trace
 *     (TraceSource::make), run only when no loaded one exists.
 *   - The Trace is its own slot, loaded only when a request asks for
 *     it through trace() (a replay, a per-leg sweep).
 *
 * Guarantees:
 *   - Single-flight: concurrent requests for the same Trace, or the
 *     same (trace, line) artifact, block on one underlying load or
 *     build; the resolver runs once per miss, never once per waiter.
 *   - LRU byte budget: an entry is charged its artifacts' bytes plus
 *     the decoded bytes of its Trace while one is loaded. When the
 *     resident total exceeds the budget, the least-recently-used idle
 *     entries are evicted, in strict LRU order, until it fits.
 *     In-flight entries and the entry being returned are never
 *     evicted; callers hold shared_ptrs, so an evicted artifact or
 *     Trace stays valid for requests already using it.
 *   - No artifact refers to a Trace the store may drop: artifacts
 *     packed from a Trace are built detached (TraceLink::Drop), so
 *     their trace() is nullptr.
 *   - Failed loads and builds are not cached: every waiter of the
 *     failing flight receives the same Status, and the next request
 *     retries.
 *
 * The store tallies its traffic once, in its own snapshot (counters())
 * for the STATS response. Under an installed obs::MetricsCollector it
 * also charges the engine's TraceLoad* counters for the loads it runs
 * (buildReplayArtifact charges IndexBuild*).
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

/** Where a trace's contents come from: a binary trace file, the
 * Trace itself, or a producer of it. */
struct TraceSource
{
    /** A DXT1/DXT2/DXT3 file: artifacts are packed from it and the
     * Trace is decoded from it only when asked for. */
    std::string path;
    /** Otherwise the trace (an uploaded one)... */
    std::shared_ptr<const Trace> trace;
    /** ...or what makes it (a synthetic benchmark, a din text file),
     * run only when the store needs the Trace and its entry holds no
     * loaded one. It may throw StatusError. */
    std::function<std::shared_ptr<const Trace>()> make;
};

class TraceStore
{
  public:
    /** Resolves a trace name to its source; invoked off-lock, once per
     * load or artifact build. */
    using Resolver =
        std::function<Result<TraceSource>(const std::string &name)>;

    /** Point-in-time counter values (monotonic except residentBytes,
     * artifactBytes and entries). */
    struct Counters
    {
        std::uint64_t traceHits = 0;   ///< entry warm on arrival
        std::uint64_t traceMisses = 0; ///< cold arrivals that started work
        std::uint64_t traceLoads = 0;  ///< Traces loaded or decoded
        std::uint64_t loadFailures = 0; ///< failed loads and builds
        std::uint64_t indexHits = 0;   ///< artifact ready on arrival
        std::uint64_t indexBuilds = 0; ///< artifact builds completed
        std::uint64_t singleFlightWaits = 0; ///< joined an in-flight op
        std::uint64_t evictions = 0;
        std::uint64_t residentBytes = 0; ///< artifacts plus loaded Traces
        std::uint64_t artifactBytes = 0; ///< artifacts alone
        std::uint64_t entries = 0;
    };

    TraceStore(Resolver resolver, std::uint64_t budget_bytes);

    TraceStore(const TraceStore &) = delete;
    TraceStore &operator=(const TraceStore &) = delete;

    /** The decoded Trace, loading it on first use (single-flight). */
    Result<std::shared_ptr<const Trace>> trace(const std::string &name);

    /**
     * The replay artifact of @p name at @p line_bytes, building it on
     * first use (single-flight per (name, line)): from the trace's file
     * when it has one, else from its Trace, which is not kept. A build
     * that fails or throws is returned as its Status to every waiter
     * and is not cached.
     */
    Result<std::shared_ptr<const ReplayArtifact>>
    artifact(const std::string &name, std::uint32_t line_bytes);

    /** True when any artifact of @p name, or its Trace, is warm. */
    bool resident(const std::string &name) const;

    Counters counters() const;
    std::uint64_t budgetBytes() const { return budget; }

  private:
    struct Slot;
    struct Entry;

    /** An entry's slot key for its Trace; an artifact's key is its
     * line size, never 0. */
    static constexpr std::uint32_t kTraceSlot = 0;

    /** The ready slot @p key of @p name, loading or building it on a
     * miss (single-flight), with the arrival tallied. */
    Result<std::shared_ptr<const Slot>> fetch(const std::string &name,
                                              std::uint32_t key);

    /** Fill @p slot off-lock: resolve @p name and load its Trace
     * (kTraceSlot) or build its artifact at @p key-byte lines, packed
     * from @p warm, the entry's loaded Trace, when there is one.
     * @return whether a Trace was loaded on the way. */
    bool fill(Slot &slot, const std::string &name, std::uint32_t key,
              std::shared_ptr<const Trace> warm);

    /** Evict LRU idle entries until the budget fits; @p keep is the
     * entry being returned and is never evicted. */
    void evictIfNeededLocked(const Entry *keep);

    Resolver resolver;
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

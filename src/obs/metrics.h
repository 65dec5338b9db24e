/**
 * @file
 * The sweep-engine metrics registry: per-leg slots written by whichever
 * worker runs the leg, plus per-thread counter shards for totals that
 * have no natural leg (trace I/O, index builds).
 *
 * Determinism contract: slots are registered serially from the input
 * axes before a sweep fans out, so the slot order is a pure function of
 * the request — never of scheduling. Each slot has exactly one writer
 * (the worker that runs its leg), and aggregation walks slots in
 * registration (leg-index) order after the fan-out completes. Counter
 * shards hold unsigned integers, whose sum is associative, so shard
 * totals are also independent of the worker count. Everything a
 * RunReport emits in its deterministic detail level is therefore
 * byte-stable across worker counts.
 *
 * Cost model: the engines consult one global pointer per *leg* (or per
 * 4096-reference chunk), never per reference, so the metrics layer is
 * free when no collector is installed — the acceptance gate is <= 1%
 * on BM_SweepKernel with metrics compiled in but disabled.
 */

#ifndef DYNEX_OBS_METRICS_H
#define DYNEX_OBS_METRICS_H

#include <array>
#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>
#include <vector>

#include "cache/dynamic_exclusion.h"
#include "cache/stats.h"

namespace dynex
{
namespace obs
{

/** Monotonic nanoseconds for interval math (steady_clock based). */
std::uint64_t monotonicNs();

/** Process-wide integer totals a sweep accumulates off the leg grid.
 * A server tallies its own traffic in its STATS rows instead
 * (Server::statsRows). */
enum class Counter : std::uint8_t
{
    TraceLoadNs,   ///< wall time spent loading/generating traces
    TraceLoadRefs, ///< references loaded or generated
    IndexBuildNs,  ///< wall time spent building next-use indexes
    IndexBuilds,   ///< next-use indexes built
    ReplayChunks,  ///< kernel replay chunks processed
    KernelClosedFormRefs, ///< kernel leg-references resolved without a lane
};

inline constexpr std::size_t kCounterCount = 6;

/** Stable lowercase name for @p counter (JSON keys, tables). */
const char *counterName(Counter counter);

/**
 * Everything recorded about one (bench, cache size) sweep leg. Slots
 * are value-initialized at registration; the worker that runs the leg
 * fills the rest and flips done.
 */
struct LegMetrics
{
    std::string bench;
    std::uint64_t sizeBytes = 0;

    Count refs = 0;            ///< references replayed through the leg
    CacheStats dm;             ///< conventional direct-mapped result
    CacheStats de;             ///< dynamic-exclusion result
    CacheStats opt;            ///< optimal result
    FsmEventCounts deEvents;   ///< dynamic exclusion FSM transitions

    /** Wall time of the leg's triad replay: contiguous under the
     * per-leg engine, the sum of this leg's per-chunk slices under the
     * kernel. */
    std::uint64_t replayNs = 0;
    std::uint64_t dmReplayNs = 0;  ///< kernel: per-model split
    std::uint64_t deReplayNs = 0;
    std::uint64_t optReplayNs = 0;

    bool done = false;   ///< the leg completed and the fields are valid
    bool failed = false; ///< the leg failed (checked sweeps)
    std::string failure; ///< status text when failed
};

/**
 * One sweep's metrics: a registry of leg slots plus sharded counters.
 *
 * Lifecycle: register every leg serially (addLeg), install the
 * collector (setActiveMetrics), run the sweep, uninstall, then read
 * legs/totals serially. leg() lookups during the run are lock-free
 * reads of a frozen map; each returned slot is written by exactly one
 * worker, so slots need no synchronization either.
 */
class MetricsCollector
{
  public:
    MetricsCollector();
    MetricsCollector(const MetricsCollector &) = delete;
    MetricsCollector &operator=(const MetricsCollector &) = delete;

    /**
     * Register the leg (bench, size_bytes) and return its slot index.
     * Call serially before the sweep fans out; registration order
     * defines the deterministic aggregation order.
     */
    std::size_t addLeg(const std::string &bench,
                       std::uint64_t size_bytes);

    /**
     * The slot registered for (bench, size_bytes), or nullptr when the
     * leg was never registered (engines treat that as "not observed").
     * Safe to call concurrently once registration is done.
     */
    LegMetrics *leg(const std::string &bench, std::uint64_t size_bytes);

    /** Slot @p index in registration order. */
    LegMetrics &legAt(std::size_t index) { return *slots[index]; }
    const LegMetrics &legAt(std::size_t index) const
    {
        return *slots[index];
    }

    std::size_t legCount() const { return slots.size(); }

    /**
     * Add @p delta to @p counter on this thread's shard. Thread-safe
     * and contention-free after a thread's first touch (which
     * registers the shard under a mutex).
     */
    void add(Counter counter, std::uint64_t delta);

    /** Sum of @p counter across all shards: call after the sweep. The
     * result is worker-count independent (integer addition). */
    std::uint64_t total(Counter counter) const;

  private:
    struct Shard
    {
        std::array<std::uint64_t, kCounterCount> values{};
    };

    Shard &shardForThisThread();

    /** Process-unique id: the per-thread shard cache keys on it, so a
     * new collector reusing a freed collector's address can never
     * alias a stale cached shard pointer. */
    const std::uint64_t collectorId;

    /** unique_ptr elements so slot addresses survive registration
     * growth; workers hold raw pointers across the fan-out. */
    std::vector<std::unique_ptr<LegMetrics>> slots;
    std::unordered_map<std::string, std::size_t> slotIndex;

    mutable std::mutex shardMutex;
    std::vector<std::unique_ptr<Shard>> shards;
};

/** The installed collector, or nullptr: one relaxed atomic load. */
MetricsCollector *activeMetrics();

/** Install @p collector (nullptr disables). The caller owns it and
 * must uninstall before destroying it or starting another sweep. */
void setActiveMetrics(MetricsCollector *collector);

/** RAII installer for setActiveMetrics. */
class ScopedMetrics
{
  public:
    explicit ScopedMetrics(MetricsCollector *collector)
    {
        setActiveMetrics(collector);
    }
    ~ScopedMetrics() { setActiveMetrics(nullptr); }
    ScopedMetrics(const ScopedMetrics &) = delete;
    ScopedMetrics &operator=(const ScopedMetrics &) = delete;
};

} // namespace obs
} // namespace dynex

#endif // DYNEX_OBS_METRICS_H

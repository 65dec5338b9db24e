/**
 * @file
 * Deterministic log-bucketed latency histograms for the serving path.
 *
 * A LatencyHistogram is 64 fixed log2 buckets over nanoseconds: bucket
 * i counts samples in [2^i, 2^(i+1)) (a value of 0 lands in bucket 0).
 * Recording is an increment into a per-thread shard — no allocation,
 * no locking after a thread's first touch — and aggregation is an
 * integer sum of bucket counts, which is associative and therefore
 * independent of recording order and worker count. Percentiles are a
 * pure function of the merged bucket counts, so for a fixed sample
 * set the exported p50/p95/p99/max rows are bit-identical whether the
 * server ran 1, 2 or 8 workers.
 *
 * HistogramSet bundles one histogram per Latency series (end-to-end
 * latency per request type, queue wait, admission decision, store
 * load, replay, serialize), which its owner hands to each obs::Phase
 * that charges one, and exports snapshots as the `lat-*` STATS rows
 * the CLI dashboard and Prometheus exposition render.
 */

#ifndef DYNEX_OBS_HISTOGRAM_H
#define DYNEX_OBS_HISTOGRAM_H

#include <array>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

namespace dynex
{
namespace obs
{

/** The latency series a server records. */
enum class Latency : std::uint8_t
{
    E2ePing,    ///< end-to-end handling of a ping request
    E2eList,    ///< end-to-end handling of a list request
    E2eReplay,  ///< end-to-end handling of a replay request
    E2eSweep,   ///< end-to-end handling of a sweep request
    E2eStats,   ///< end-to-end handling of a stats request
    E2eHello,   ///< end-to-end handling of a hello request
    QueueWait,  ///< accept-to-worker-pickup wait in the accept queue
    Admission,  ///< admission-control decision time
    StoreLoad,  ///< TraceStore acquire (hit, wait or load)
    Replay,     ///< the simulation work itself
    Serialize,  ///< response body encode time
};

inline constexpr std::size_t kLatencyCount = 11;

/** Number of log2 buckets; covers the full u64 nanosecond range. */
inline constexpr std::size_t kHistogramBuckets = 64;

/** Stable lowercase name ("e2e-ping", "queue-wait", ...). */
const char *latencyName(Latency series);

/**
 * The merged, immutable view of one histogram. Percentile queries and
 * row export all run on snapshots, never on live shards.
 */
struct HistogramSnapshot
{
    std::array<std::uint64_t, kHistogramBuckets> buckets{};
    std::uint64_t count = 0;
    std::uint64_t sumNs = 0;
    std::uint64_t maxNs = 0;

    /** Fold another snapshot in (order-independent integer sums). */
    void merge(const HistogramSnapshot &other);

    /**
     * The smallest bucket upper bound whose cumulative count reaches
     * @p q (in [0,1]) of the total, clamped to maxNs so a one-sample
     * histogram reports the sample, not its bucket ceiling. 0 when
     * empty.
     */
    std::uint64_t percentileNs(double q) const;
};

/** The log2 bucket for @p ns: floor(log2(ns)), 0 for ns <= 1. */
std::size_t histogramBucket(std::uint64_t ns);

/** Inclusive upper bound of bucket @p index (2^(i+1) - 1, saturated). */
std::uint64_t histogramBucketUpperNs(std::size_t index);

/**
 * One process's set of latency histograms: per-thread shards, each
 * holding all kLatencyCount series, registered on first touch exactly
 * like MetricsCollector's counter shards.
 */
class HistogramSet
{
  public:
    HistogramSet();
    HistogramSet(const HistogramSet &) = delete;
    HistogramSet &operator=(const HistogramSet &) = delete;

    /** Record @p ns into @p series on this thread's shard. */
    void record(Latency series, std::uint64_t ns);

    /** Merge all shards of @p series into one snapshot. */
    HistogramSnapshot snapshot(Latency series) const;

    /**
     * Append the `lat-*` STATS rows for every non-empty series, in
     * Latency declaration order: count, sum-us, p50/p95/p99/max-us,
     * then cumulative `le` bucket rows up to the highest non-empty
     * bucket. Empty series emit nothing, so a fresh server's stats
     * stay compact.
     */
    void appendStatsRows(
        std::vector<std::pair<std::string, std::uint64_t>> &rows) const;

  private:
    struct Shard
    {
        struct Series
        {
            std::array<std::uint64_t, kHistogramBuckets> buckets{};
            std::uint64_t count = 0;
            std::uint64_t sumNs = 0;
            std::uint64_t maxNs = 0;
        };
        std::array<Series, kLatencyCount> series{};
    };

    Shard &shardForThisThread();

    /** Process-unique id keying the per-thread shard cache (see
     * MetricsCollector::shardForThisThread for the aliasing hazard). */
    const std::uint64_t setId;

    mutable std::mutex shardMutex;
    std::vector<std::unique_ptr<Shard>> shards;
};

/**
 * Append one snapshot's rows under @p name using the export naming
 * convention (`lat-<name>-count`, `-sum-us`, `-p50-us`, `-p95-us`,
 * `-p99-us`, `-max-us`, then `-le-<ns>` cumulative buckets). Shared by
 * HistogramSet::appendStatsRows and tests.
 */
void appendSnapshotRows(
    const std::string &name, const HistogramSnapshot &snap,
    std::vector<std::pair<std::string, std::uint64_t>> &rows);

} // namespace obs
} // namespace dynex

#endif // DYNEX_OBS_HISTOGRAM_H

#include "obs/histogram.h"

#include <atomic>
#include <bit>

namespace dynex
{
namespace obs
{

namespace
{

std::atomic<std::uint64_t> nextSetId{1};

} // namespace

const char *
latencyName(Latency series)
{
    switch (series) {
      case Latency::E2ePing: return "e2e-ping";
      case Latency::E2eList: return "e2e-list";
      case Latency::E2eReplay: return "e2e-replay";
      case Latency::E2eSweep: return "e2e-sweep";
      case Latency::E2eStats: return "e2e-stats";
      case Latency::E2eHello: return "e2e-hello";
      case Latency::QueueWait: return "queue-wait";
      case Latency::Admission: return "admission";
      case Latency::StoreLoad: return "store-load";
      case Latency::Replay: return "replay";
      case Latency::Serialize: return "serialize";
    }
    return "unknown";
}

std::size_t
histogramBucket(std::uint64_t ns)
{
    return ns <= 1 ? 0
                   : static_cast<std::size_t>(63 - std::countl_zero(ns));
}

std::uint64_t
histogramBucketUpperNs(std::size_t index)
{
    if (index >= kHistogramBuckets - 1)
        return ~0ull;
    return (2ull << index) - 1;
}

void
HistogramSnapshot::merge(const HistogramSnapshot &other)
{
    for (std::size_t i = 0; i < kHistogramBuckets; ++i)
        buckets[i] += other.buckets[i];
    count += other.count;
    sumNs += other.sumNs;
    maxNs = maxNs < other.maxNs ? other.maxNs : maxNs;
}

std::uint64_t
HistogramSnapshot::percentileNs(double q) const
{
    if (count == 0)
        return 0;
    // Rank of the q-th sample, 1-based, clamped into [1, count].
    std::uint64_t rank =
        static_cast<std::uint64_t>(q * static_cast<double>(count));
    if (rank < 1)
        rank = 1;
    if (rank > count)
        rank = count;
    std::uint64_t seen = 0;
    for (std::size_t i = 0; i < kHistogramBuckets; ++i) {
        seen += buckets[i];
        if (seen >= rank) {
            const std::uint64_t upper = histogramBucketUpperNs(i);
            return upper < maxNs ? upper : maxNs;
        }
    }
    return maxNs;
}

HistogramSet::HistogramSet() : setId(nextSetId.fetch_add(1)) {}

HistogramSet::Shard &
HistogramSet::shardForThisThread()
{
    thread_local std::uint64_t cachedOwner = 0;
    thread_local Shard *cachedShard = nullptr;
    if (cachedOwner != setId) {
        std::lock_guard<std::mutex> lock(shardMutex);
        shards.push_back(std::make_unique<Shard>());
        cachedShard = shards.back().get();
        cachedOwner = setId;
    }
    return *cachedShard;
}

void
HistogramSet::record(Latency series, std::uint64_t ns)
{
    Shard::Series &s =
        shardForThisThread().series[static_cast<std::size_t>(series)];
    ++s.buckets[histogramBucket(ns)];
    ++s.count;
    s.sumNs += ns;
    if (ns > s.maxNs)
        s.maxNs = ns;
}

HistogramSnapshot
HistogramSet::snapshot(Latency series) const
{
    const std::size_t index = static_cast<std::size_t>(series);
    HistogramSnapshot snap;
    std::lock_guard<std::mutex> lock(shardMutex);
    for (const auto &shard : shards) {
        const Shard::Series &s = shard->series[index];
        for (std::size_t i = 0; i < kHistogramBuckets; ++i)
            snap.buckets[i] += s.buckets[i];
        snap.count += s.count;
        snap.sumNs += s.sumNs;
        if (s.maxNs > snap.maxNs)
            snap.maxNs = s.maxNs;
    }
    return snap;
}

void
appendSnapshotRows(
    const std::string &name, const HistogramSnapshot &snap,
    std::vector<std::pair<std::string, std::uint64_t>> &rows)
{
    const std::string prefix = "lat-" + name;
    rows.emplace_back(prefix + "-count", snap.count);
    rows.emplace_back(prefix + "-sum-us", snap.sumNs / 1000);
    rows.emplace_back(prefix + "-p50-us", snap.percentileNs(0.50) / 1000);
    rows.emplace_back(prefix + "-p95-us", snap.percentileNs(0.95) / 1000);
    rows.emplace_back(prefix + "-p99-us", snap.percentileNs(0.99) / 1000);
    rows.emplace_back(prefix + "-max-us", snap.maxNs / 1000);
    // Cumulative bucket rows up to the highest non-empty bucket: the
    // Prometheus renderer turns these into classic `le` buckets.
    std::size_t top = 0;
    for (std::size_t i = 0; i < kHistogramBuckets; ++i)
        if (snap.buckets[i] != 0)
            top = i;
    std::uint64_t cumulative = 0;
    for (std::size_t i = 0; i <= top; ++i) {
        cumulative += snap.buckets[i];
        rows.emplace_back(prefix + "-le-" +
                              std::to_string(histogramBucketUpperNs(i)),
                          cumulative);
    }
}

void
HistogramSet::appendStatsRows(
    std::vector<std::pair<std::string, std::uint64_t>> &rows) const
{
    for (std::size_t i = 0; i < kLatencyCount; ++i) {
        const Latency series = static_cast<Latency>(i);
        const HistogramSnapshot snap = snapshot(series);
        if (snap.count == 0)
            continue;
        appendSnapshotRows(latencyName(series), snap, rows);
    }
}

} // namespace obs
} // namespace dynex

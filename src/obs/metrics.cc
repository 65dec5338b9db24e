#include "obs/metrics.h"

#include <chrono>

#include "util/logging.h"

namespace dynex
{
namespace obs
{

namespace
{

std::atomic<MetricsCollector *> activeCollector{nullptr};

/** Slot-map key: legs are unique per (bench, size). */
std::string
legKey(const std::string &bench, std::uint64_t size_bytes)
{
    return bench + '@' + std::to_string(size_bytes);
}

std::atomic<std::uint64_t> nextCollectorId{1};

} // namespace

MetricsCollector::MetricsCollector()
    : collectorId(nextCollectorId.fetch_add(1))
{
}

std::uint64_t
monotonicNs()
{
    return static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            std::chrono::steady_clock::now().time_since_epoch())
            .count());
}

const char *
counterName(Counter counter)
{
    switch (counter) {
      case Counter::TraceLoadNs:
        return "trace-load-ns";
      case Counter::TraceLoadRefs:
        return "trace-load-refs";
      case Counter::IndexBuildNs:
        return "index-build-ns";
      case Counter::IndexBuilds:
        return "index-builds";
      case Counter::ReplayChunks:
        return "replay-chunks";
      case Counter::SrvRequests:
        return "srv-requests";
      case Counter::SrvErrors:
        return "srv-errors";
      case Counter::SrvBusy:
        return "srv-busy";
      case Counter::SrvBytesIn:
        return "srv-bytes-in";
      case Counter::SrvBytesOut:
        return "srv-bytes-out";
      case Counter::StoreHits:
        return "store-hits";
      case Counter::StoreMisses:
        return "store-misses";
      case Counter::StoreEvictions:
        return "store-evictions";
      case Counter::SrvAdmitted:
        return "srv-admitted";
      case Counter::SrvShed:
        return "srv-shed";
      case Counter::SrvRetryAfterMs:
        return "srv-retry-after-ms";
      case Counter::ChaosBusy:
        return "chaos-busy";
      case Counter::ChaosTrunc:
        return "chaos-truncations";
      case Counter::ChaosDelay:
        return "chaos-delays";
      case Counter::ChaosLoadFail:
        return "chaos-load-failures";
    }
    return "unknown";
}

std::size_t
MetricsCollector::addLeg(const std::string &bench,
                         std::uint64_t size_bytes)
{
    const std::size_t index = slots.size();
    auto slot = std::make_unique<LegMetrics>();
    slot->bench = bench;
    slot->sizeBytes = size_bytes;
    slots.push_back(std::move(slot));
    slotIndex.emplace(legKey(bench, size_bytes), index);
    return index;
}

LegMetrics *
MetricsCollector::leg(const std::string &bench, std::uint64_t size_bytes)
{
    const auto it = slotIndex.find(legKey(bench, size_bytes));
    return it == slotIndex.end() ? nullptr : slots[it->second].get();
}

MetricsCollector::Shard &
MetricsCollector::shardForThisThread()
{
    // One cached (collector-id, shard) pair per thread: pool threads
    // outlive sweeps, so after the first touch every add() is a plain
    // array store with no locking. Keying on the unique id (not the
    // address) keeps a stale cache from aliasing a new collector that
    // reuses a freed one's storage.
    thread_local std::uint64_t cachedOwner = 0;
    thread_local Shard *cachedShard = nullptr;
    if (cachedOwner != collectorId) {
        std::lock_guard<std::mutex> lock(shardMutex);
        shards.push_back(std::make_unique<Shard>());
        cachedShard = shards.back().get();
        cachedOwner = collectorId;
    }
    return *cachedShard;
}

void
MetricsCollector::add(Counter counter, std::uint64_t delta)
{
    shardForThisThread().values[static_cast<std::size_t>(counter)] +=
        delta;
}

std::uint64_t
MetricsCollector::total(Counter counter) const
{
    std::lock_guard<std::mutex> lock(shardMutex);
    std::uint64_t sum = 0;
    for (const auto &shard : shards)
        sum += shard->values[static_cast<std::size_t>(counter)];
    return sum;
}

MetricsCollector *
activeMetrics()
{
    return activeCollector.load(std::memory_order_relaxed);
}

void
setActiveMetrics(MetricsCollector *collector)
{
    activeCollector.store(collector, std::memory_order_relaxed);
}

} // namespace obs
} // namespace dynex

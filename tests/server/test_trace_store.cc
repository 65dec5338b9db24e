/**
 * @file
 * TraceStore tests: single-flight loading under thread contention
 * (exactly one loader call for eight concurrent requesters), artifact
 * caching and its resident charge, failed-load retry, byte-budgeted
 * LRU eviction in strict recency order, counter stability across the
 * whole lifecycle, and sweeps over the cached packed view matching
 * self-packed ones.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <bit>
#include <chrono>
#include <cstdint>
#include <mutex>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "server/trace_store.h"
#include "sim/sweep.h"
#include "trace/trace.h"
#include "util/status.h"

namespace dynex::server
{
namespace
{

/** A small but non-trivial synthetic trace, distinct per name so a
 * test can tell which trace an entry holds. */
Trace
tinyTrace(const std::string &name, std::size_t refs = 64)
{
    Trace trace(name);
    trace.reserve(refs);
    for (std::size_t i = 0; i < refs; ++i)
        trace.append(ifetch(static_cast<Addr>(0x1000 + 64 * (i % 7))));
    return trace;
}

TEST(TraceStore, LoadsOnceAndHitsAfterwards)
{
    std::atomic<int> loads{0};
    TraceStore store(
        [&](const std::string &name) -> Result<Trace> {
            ++loads;
            return tinyTrace(name);
        },
        1ull << 30);

    const auto first = store.trace("alpha");
    ASSERT_TRUE(first.ok()) << first.status().toString();
    const auto second = store.trace("alpha");
    ASSERT_TRUE(second.ok());
    EXPECT_EQ(first.value().get(), second.value().get());
    EXPECT_EQ(loads.load(), 1);

    const auto counters = store.counters();
    EXPECT_EQ(counters.traceMisses, 1u);
    EXPECT_EQ(counters.traceHits, 1u);
    EXPECT_EQ(counters.traceLoads, 1u);
    EXPECT_EQ(counters.entries, 1u);
    EXPECT_GT(counters.residentBytes, 0u);
    EXPECT_TRUE(store.resident("alpha"));
    EXPECT_FALSE(store.resident("beta"));
}

TEST(TraceStore, EightThreadsShareOneFlight)
{
    std::atomic<int> loads{0};
    TraceStore store(
        [&](const std::string &name) -> Result<Trace> {
            ++loads;
            // Stall long enough that every other thread arrives while
            // the flight is still open.
            std::this_thread::sleep_for(std::chrono::milliseconds(50));
            return tinyTrace(name, 4096);
        },
        1ull << 30);

    constexpr int kThreads = 8;
    std::vector<std::thread> threads;
    std::atomic<int> successes{0};
    std::atomic<int> sharedPointers{0};
    const Trace *firstSeen = nullptr;
    std::mutex firstMutex;
    for (int t = 0; t < kThreads; ++t)
        threads.emplace_back([&] {
            const auto result = store.trace("hammered");
            if (!result.ok())
                return;
            ++successes;
            std::lock_guard<std::mutex> lock(firstMutex);
            if (!firstSeen)
                firstSeen = result.value().get();
            if (firstSeen == result.value().get())
                ++sharedPointers;
        });
    for (auto &thread : threads)
        thread.join();

    EXPECT_EQ(loads.load(), 1);
    EXPECT_EQ(successes.load(), kThreads);
    EXPECT_EQ(sharedPointers.load(), kThreads);

    const auto counters = store.counters();
    EXPECT_EQ(counters.traceLoads, 1u);
    EXPECT_EQ(counters.traceMisses, 1u);
    EXPECT_EQ(counters.traceHits + counters.singleFlightWaits,
              static_cast<std::uint64_t>(kThreads - 1));
}

TEST(TraceStore, IndexedBuildsOncePerLineGranularity)
{
    std::atomic<int> loads{0};
    TraceStore store(
        [&](const std::string &name) -> Result<Trace> {
            ++loads;
            return tinyTrace(name);
        },
        1ull << 30);

    const auto a = store.indexed("alpha", 4);
    ASSERT_TRUE(a.ok()) << a.status().toString();
    ASSERT_NE(a.value().index, nullptr);
    ASSERT_NE(a.value().view, nullptr);
    EXPECT_EQ(a.value().lineBytes, 4u);

    const auto again = store.indexed("alpha", 4);
    ASSERT_TRUE(again.ok());
    EXPECT_EQ(a.value().index.get(), again.value().index.get());
    EXPECT_EQ(a.value().view.get(), again.value().view.get());

    const auto wider = store.indexed("alpha", 16);
    ASSERT_TRUE(wider.ok());
    EXPECT_NE(a.value().index.get(), wider.value().index.get());

    EXPECT_EQ(loads.load(), 1);
    const auto counters = store.counters();
    EXPECT_EQ(counters.indexBuilds, 2u); // one per granularity
    EXPECT_EQ(counters.indexHits, 1u);
}

TEST(TraceStore, ColdIndexedChargesTheIndexAndViewBytes)
{
    // A cold artifact holds 12 bytes per reference: a 4-byte set
    // word, a 4-byte dense id and a 4-byte next-use tick.
    TraceStore store(
        [&](const std::string &name) -> Result<Trace> {
            return tinyTrace(name);
        },
        1ull << 30);
    ASSERT_TRUE(store.trace("alpha").ok());
    const std::uint64_t before = store.counters().residentBytes;

    ASSERT_TRUE(store.indexed("alpha", 4).ok());
    EXPECT_EQ(store.counters().residentBytes - before,
              64u * 12);

    // A warm hit charges nothing more.
    const std::uint64_t warm = store.counters().residentBytes;
    ASSERT_TRUE(store.indexed("alpha", 4).ok());
    EXPECT_EQ(store.counters().residentBytes, warm);
}

TEST(TraceStore, FailedLoadIsNotCachedAndRetries)
{
    std::atomic<int> calls{0};
    TraceStore store(
        [&](const std::string &name) -> Result<Trace> {
            if (++calls == 1)
                return Status::ioError("disk on fire");
            return tinyTrace(name);
        },
        1ull << 30);

    const auto failed = store.trace("flaky");
    ASSERT_FALSE(failed.ok());
    EXPECT_EQ(failed.status().code(), StatusCode::IoError);
    EXPECT_FALSE(store.resident("flaky"));
    EXPECT_EQ(store.counters().loadFailures, 1u);

    const auto retried = store.trace("flaky");
    ASSERT_TRUE(retried.ok()) << retried.status().toString();
    EXPECT_EQ(calls.load(), 2);
    EXPECT_TRUE(store.resident("flaky"));
}

TEST(TraceStore, ThrowingLoaderBecomesAStatusNotACrash)
{
    TraceStore store(
        [](const std::string &) -> Result<Trace> {
            throw std::runtime_error("loader exploded");
        },
        1ull << 30);
    const auto result = store.trace("boom");
    ASSERT_FALSE(result.ok());
    EXPECT_NE(result.status().toString().find("loader exploded"),
              std::string::npos);
}

TEST(TraceStore, EvictsLeastRecentlyUsedFirstWhenOverBudget)
{
    // Each trace charges ~refs * sizeof(MemRef); pick a budget that
    // holds roughly two of the three traces.
    constexpr std::size_t kRefs = 4096;
    const std::uint64_t perTrace = kRefs * sizeof(MemRef);
    TraceStore store(
        [&](const std::string &name) -> Result<Trace> {
            return tinyTrace(name, kRefs);
        },
        2 * perTrace + perTrace / 2);

    ASSERT_TRUE(store.trace("one").ok());
    ASSERT_TRUE(store.trace("two").ok());
    // Touch "one" so "two" becomes the LRU entry.
    ASSERT_TRUE(store.trace("one").ok());
    ASSERT_TRUE(store.trace("three").ok());

    EXPECT_TRUE(store.resident("one"));
    EXPECT_FALSE(store.resident("two")); // strict LRU order
    EXPECT_TRUE(store.resident("three"));

    const auto counters = store.counters();
    EXPECT_EQ(counters.evictions, 1u);
    EXPECT_EQ(counters.entries, 2u);
    EXPECT_LE(counters.residentBytes, store.budgetBytes());

    // A fourth load evicts the new LRU ("one") but never the entry
    // being returned.
    ASSERT_TRUE(store.trace("four").ok());
    EXPECT_FALSE(store.resident("one"));
    EXPECT_TRUE(store.resident("four"));
    EXPECT_EQ(store.counters().evictions, 2u);
}

TEST(TraceStore, EvictedTraceStaysValidForHolders)
{
    constexpr std::size_t kRefs = 2048;
    const std::uint64_t perTrace = kRefs * sizeof(MemRef);
    TraceStore store(
        [&](const std::string &name) -> Result<Trace> {
            return tinyTrace(name, kRefs);
        },
        perTrace + perTrace / 2);

    const auto held = store.trace("held");
    ASSERT_TRUE(held.ok());
    ASSERT_TRUE(store.trace("usurper").ok());
    EXPECT_FALSE(store.resident("held"));
    // The shared_ptr keeps the evicted trace alive and intact.
    EXPECT_EQ(held.value()->size(), kRefs);
    EXPECT_EQ(held.value()->name(), "held");
}

TEST(TraceStore, ZeroBudgetStillServesButKeepsNothing)
{
    std::atomic<int> loads{0};
    TraceStore store(
        [&](const std::string &name) -> Result<Trace> {
            ++loads;
            return tinyTrace(name);
        },
        0);
    ASSERT_TRUE(store.trace("a").ok());
    ASSERT_TRUE(store.trace("b").ok());
    ASSERT_TRUE(store.trace("a").ok());
    EXPECT_EQ(loads.load(), 3); // every lookup reloads
    // Only the entry being returned survives each eviction pass.
    EXPECT_EQ(store.counters().entries, 1u);
    EXPECT_TRUE(store.resident("a"));
    EXPECT_FALSE(store.resident("b"));
}

TEST(TraceStore, SizeProbeChargesEncodedBytes)
{
    // 64 refs decode to 64 * 16 + name bytes; the probe claims a 256-
    // byte on-disk footprint, so that is what residency must charge.
    TraceStore store(
        [&](const std::string &name) -> Result<Trace> {
            return tinyTrace(name);
        },
        1ull << 30, [](const std::string &) { return 256ull; });

    ASSERT_TRUE(store.trace("alpha").ok());
    const auto counters = store.counters();
    EXPECT_EQ(counters.residentBytes, 256u);
    EXPECT_EQ(counters.encodedHits, 1u);
    const std::uint64_t decoded =
        64 * sizeof(MemRef) + std::string("alpha").size();
    EXPECT_EQ(counters.bytesSaved, decoded - 256);
}

TEST(TraceStore, SizeProbeNeverInflatesTheCharge)
{
    // A probe that reports more than the decoded footprint (or zero)
    // must leave the decoded charge in place.
    for (const std::uint64_t claimed : {std::uint64_t{0}, ~std::uint64_t{0}}) {
        TraceStore store(
            [&](const std::string &name) -> Result<Trace> {
                return tinyTrace(name);
            },
            1ull << 30,
            [claimed](const std::string &) { return claimed; });
        ASSERT_TRUE(store.trace("alpha").ok());
        const auto counters = store.counters();
        EXPECT_EQ(counters.residentBytes,
                  64 * sizeof(MemRef) + std::string("alpha").size());
        EXPECT_EQ(counters.encodedHits, 0u);
        EXPECT_EQ(counters.bytesSaved, 0u);
    }
}

TEST(TraceStore, ThrowingSizeProbeFallsBackToDecoded)
{
    TraceStore store(
        [&](const std::string &name) -> Result<Trace> {
            return tinyTrace(name);
        },
        1ull << 30,
        [](const std::string &) -> std::uint64_t {
            throw std::runtime_error("stat failed");
        });
    const auto result = store.trace("alpha");
    ASSERT_TRUE(result.ok()) << result.status().toString();
    EXPECT_EQ(store.counters().residentBytes,
              64 * sizeof(MemRef) + std::string("alpha").size());
}

TEST(TraceStore, EncodedChargingHoldsMoreTracesPerBudgetByte)
{
    // Two decoded traces overflow the budget, but at their (claimed)
    // encoded size both stay resident — the point of DXT3 charging.
    const std::uint64_t decoded = 64 * sizeof(MemRef) + 1;
    TraceStore store(
        [&](const std::string &name) -> Result<Trace> {
            return tinyTrace(name);
        },
        decoded + decoded / 2,
        [](const std::string &) { return 128ull; });
    ASSERT_TRUE(store.trace("a").ok());
    ASSERT_TRUE(store.trace("b").ok());
    EXPECT_TRUE(store.resident("a"));
    EXPECT_TRUE(store.resident("b"));
    EXPECT_EQ(store.counters().evictions, 0u);
}

TEST(TraceStore, CachedViewSweepMatchesASelfPackedSweepByteForByte)
{
    // A loop nest whose bodies alias across the paper's size axis.
    TraceStore store(
        [](const std::string &name) -> Result<Trace> {
            Trace trace(name);
            for (int rep = 0; rep < 400; ++rep) {
                for (Addr a = 0; a < 48; ++a)
                    trace.append(ifetch(0x1000 + 4 * a));
                for (Addr a = 0; a < 16; ++a)
                    trace.append(ifetch(0x1000 + 8192 + 4 * a));
                trace.append(load(0x90000 + 8 * (rep % 97)));
            }
            return trace;
        },
        1ull << 30);
    for (const std::uint32_t line : {4u, 16u}) {
        const auto warm = store.indexed("loops", line);
        ASSERT_TRUE(warm.ok()) << warm.status().toString();
        DynamicExclusionConfig config;
        config.useLastLine = line > 4;
        const SizeSweepOutcome cached = sweepSizesChecked(
            *warm.value().trace, *warm.value().index, *warm.value().view,
            paperCacheSizes(), line, config);
        const SizeSweepOutcome packed = sweepSizesChecked(
            *warm.value().trace, paperCacheSizes(), line, config);
        ASSERT_TRUE(cached.allOk());
        ASSERT_TRUE(packed.allOk());
        ASSERT_EQ(cached.points.size(), packed.points.size());
        EXPECT_EQ(cached.ok, packed.ok);
        for (std::size_t s = 0; s < packed.points.size(); ++s) {
            const SizeSweepPoint &got = cached.points[s];
            const SizeSweepPoint &want = packed.points[s];
            EXPECT_EQ(got.sizeBytes, want.sizeBytes);
            EXPECT_EQ(std::bit_cast<std::uint64_t>(got.dmMissPct),
                      std::bit_cast<std::uint64_t>(want.dmMissPct))
                << line << "B line, " << want.sizeBytes << "B";
            EXPECT_EQ(std::bit_cast<std::uint64_t>(got.deMissPct),
                      std::bit_cast<std::uint64_t>(want.deMissPct))
                << line << "B line, " << want.sizeBytes << "B";
            EXPECT_EQ(std::bit_cast<std::uint64_t>(got.optMissPct),
                      std::bit_cast<std::uint64_t>(want.optMissPct))
                << line << "B line, " << want.sizeBytes << "B";
        }
    }
}

} // namespace
} // namespace dynex::server

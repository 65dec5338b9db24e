/**
 * @file
 * TraceStore tests: single-flight loads and builds under thread
 * contention (exactly one resolver call for eight concurrent
 * requesters), per-line artifact caching charged at its resident
 * bytes, file-backed artifacts that never decode the Trace, failed
 * loads and builds retried instead of cached, byte-budgeted LRU
 * eviction in strict recency order, evicted Traces and artifacts
 * staying valid for holders, artifact builds visible to the tracer and
 * the metrics exactly as a local sweep's are, and sweeps over the
 * cached artifact matching self-built ones.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <bit>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <mutex>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "obs/metrics.h"
#include "obs/trace_events.h"
#include "server/trace_store.h"
#include "sim/sweep.h"
#include "sim/workloads.h"
#include "trace/trace.h"
#include "trace/trace_io.h"
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

/** A source for @p trace: the store packs its artifacts from it. */
Result<TraceSource>
decoded(Trace trace)
{
    return TraceSource{"", std::make_shared<const Trace>(std::move(trace)),
                       nullptr};
}

/** tinyTrace(name) written to a DXT2 file, removed at scope exit. */
struct TinyFile
{
    std::string path;

    explicit TinyFile(const std::string &name, std::size_t refs = 64)
        : path(::testing::TempDir() + "/dynex_store_" + name + ".dxt2")
    {
        const Status status =
            writeTraceFile(tinyTrace(name, refs), path, TraceFormat::Dxt2);
        EXPECT_TRUE(status.ok()) << status.toString();
    }
    ~TinyFile() { std::remove(path.c_str()); }
};

/** Bytes of tinyTrace's artifact: 8 per reference, a 4-byte dense id
 * and a 4-byte next-use tick, plus a 4-byte set word and a 1-byte
 * shared bit count per distinct block (it touches 7 at 4-byte lines),
 * plus the shared counts' 3-byte tail and the set-sharing histograms. */
std::uint64_t
tinyArtifactBytes(std::size_t refs)
{
    return refs * 8 + 7 * 5 + 3 +
           (SetSharing::kBuckets + 1) * sizeof(SetSharing::Tally);
}

TEST(TraceStore, LoadsOnceAndHitsAfterwards)
{
    std::atomic<int> loads{0};
    TraceStore store(
        [&](const std::string &name) -> Result<TraceSource> {
            ++loads;
            return decoded(tinyTrace(name));
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
        [&](const std::string &name) -> Result<TraceSource> {
            ++loads;
            // Stall long enough that every other thread arrives while
            // the flight is still open.
            std::this_thread::sleep_for(std::chrono::milliseconds(50));
            return decoded(tinyTrace(name, 4096));
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

TEST(TraceStore, EightThreadsShareOneArtifactBuild)
{
    std::atomic<int> resolves{0};
    TraceStore store(
        [&](const std::string &name) -> Result<TraceSource> {
            ++resolves;
            std::this_thread::sleep_for(std::chrono::milliseconds(50));
            return decoded(tinyTrace(name, 4096));
        },
        1ull << 30);

    constexpr int kThreads = 8;
    std::vector<std::thread> threads;
    std::vector<const ReplayArtifact *> seen(kThreads, nullptr);
    for (int t = 0; t < kThreads; ++t)
        threads.emplace_back([&, t] {
            const auto result = store.artifact("hammered", 4);
            if (result.ok())
                seen[t] = result.value().get();
        });
    for (auto &thread : threads)
        thread.join();

    EXPECT_EQ(resolves.load(), 1);
    for (const ReplayArtifact *artifact : seen)
        EXPECT_EQ(artifact, seen.front());
    ASSERT_NE(seen.front(), nullptr);
    const auto counters = store.counters();
    EXPECT_EQ(counters.indexBuilds, 1u);
    EXPECT_EQ(counters.traceMisses, 1u);
    EXPECT_EQ(counters.indexHits + counters.singleFlightWaits,
              static_cast<std::uint64_t>(kThreads - 1));
}

TEST(TraceStore, IndexedBuildsOncePerLineGranularity)
{
    // A file-backed trace: each granularity is packed from the file,
    // and the Trace is never decoded.
    const TinyFile file("alpha");
    std::atomic<int> resolves{0};
    TraceStore store(
        [&](const std::string &) -> Result<TraceSource> {
            ++resolves;
            return TraceSource{file.path, nullptr, nullptr};
        },
        1ull << 30);

    const auto a = store.artifact("alpha", 4);
    ASSERT_TRUE(a.ok()) << a.status().toString();
    ASSERT_NE(a.value(), nullptr);
    EXPECT_EQ(a.value()->lineBytes(), 4u);
    EXPECT_EQ(a.value()->name(), "alpha");

    const auto again = store.artifact("alpha", 4);
    ASSERT_TRUE(again.ok());
    EXPECT_EQ(a.value().get(), again.value().get());

    const auto wider = store.artifact("alpha", 16);
    ASSERT_TRUE(wider.ok());
    EXPECT_NE(a.value().get(), wider.value().get());
    EXPECT_EQ(wider.value()->lineBytes(), 16u);

    EXPECT_EQ(resolves.load(), 2); // one per granularity built
    const auto counters = store.counters();
    EXPECT_EQ(counters.indexBuilds, 2u); // one per granularity
    EXPECT_EQ(counters.indexHits, 1u);
    EXPECT_EQ(counters.traceLoads, 0u);
}

TEST(TraceStore, FileBackedArtifactNeverLoadsTheTraceUntilAsked)
{
    // A kernel sweep's artifact comes straight from the file; the
    // Trace is decoded only when a request asks for it (a replay), and
    // then exactly once.
    const TinyFile file("filed", 5000);
    TraceStore store(
        [&](const std::string &) -> Result<TraceSource> {
            return TraceSource{file.path, nullptr, nullptr};
        },
        1ull << 30);

    const auto artifact = store.artifact("filed", 4);
    ASSERT_TRUE(artifact.ok()) << artifact.status().toString();
    EXPECT_EQ(artifact.value()->trace(), nullptr);
    EXPECT_EQ(artifact.value()->refs(), 5000u);
    EXPECT_EQ(store.counters().traceLoads, 0u);
    EXPECT_EQ(store.counters().residentBytes,
              store.counters().artifactBytes);
    EXPECT_TRUE(store.resident("filed"));

    const auto first = store.trace("filed");
    ASSERT_TRUE(first.ok()) << first.status().toString();
    const auto second = store.trace("filed");
    ASSERT_TRUE(second.ok());
    EXPECT_EQ(first.value().get(), second.value().get());
    EXPECT_EQ(first.value()->name(), "filed");
    EXPECT_EQ(first.value()->size(), 5000u);

    const auto counters = store.counters();
    EXPECT_EQ(counters.traceLoads, 1u);
    // Every request after the first found the entry warm.
    EXPECT_EQ(counters.traceMisses, 1u);
    EXPECT_EQ(counters.traceHits, 2u);
    // The Trace is charged its decoded bytes beside the artifact.
    EXPECT_EQ(counters.residentBytes - counters.artifactBytes,
              5000 * sizeof(MemRef) + std::string("filed").size());
}

TEST(TraceStore, ArtifactOfAWarmTraceIsPackedFromIt)
{
    // With the Trace loaded (a replay), a cold artifact of the same
    // file is packed from it: the file is decoded once, not twice, and
    // the artifact equals the one packed from the file.
    const TinyFile file("warm", 5000);
    std::atomic<int> resolves{0};
    TraceStore store(
        [&](const std::string &) -> Result<TraceSource> {
            ++resolves;
            return TraceSource{file.path, nullptr, nullptr};
        },
        1ull << 30);
    obs::MetricsCollector metrics;
    obs::ScopedMetrics install(&metrics);

    ASSERT_TRUE(store.trace("warm").ok());
    EXPECT_EQ(metrics.total(obs::Counter::TraceLoadRefs), 5000u);
    const auto artifact = store.artifact("warm", 4);
    ASSERT_TRUE(artifact.ok()) << artifact.status().toString();
    // Resolved once per load or build, decoded once.
    EXPECT_EQ(resolves.load(), 2);
    EXPECT_EQ(store.counters().traceLoads, 1u);
    EXPECT_EQ(metrics.total(obs::Counter::TraceLoadRefs), 5000u);
    EXPECT_EQ(artifact.value()->trace(), nullptr);
    EXPECT_EQ(artifact.value()->name(), "warm");

    const auto filed = buildReplayArtifact(file.path, 4);
    ASSERT_TRUE(filed.ok()) << filed.status().toString();
    ASSERT_EQ(artifact.value()->refs(), filed.value()->refs());
    for (std::size_t i = 0; i < filed.value()->refs(); ++i)
        ASSERT_EQ(artifact.value()->view().ids()[i],
                  filed.value()->view().ids()[i]);
    EXPECT_EQ(artifact.value()->bytes(), filed.value()->bytes());
}

TEST(TraceStore, ServedSyntheticTraceIsNotMemoized)
{
    // The server resolves a synthetic benchmark to a producer that
    // calls Workloads::generateInstructions: once its artifact is
    // packed, nothing but the producer's caller holds the Trace, so
    // nothing keeps it resident outside the store's budget. The
    // memoized Workloads::instructions would keep a second reference.
    Workloads::dropCache();
    std::shared_ptr<const Trace> resolved;
    TraceStore store(
        [&](const std::string &name) -> Result<TraceSource> {
            return TraceSource{"", nullptr, [&resolved, name] {
                                   resolved = Workloads::
                                       generateInstructions(name, 5000);
                                   return resolved;
                               }};
        },
        1ull << 30);
    ASSERT_TRUE(store.artifact("espresso", 16).ok());
    ASSERT_TRUE(resolved);
    EXPECT_EQ(resolved.use_count(), 1);
    EXPECT_EQ(resolved->size(), 5000u);

    const auto memoized = Workloads::instructions("espresso", 5000);
    EXPECT_GT(memoized.use_count(), 1);
    EXPECT_EQ(memoized->records().size(), resolved->records().size());
    for (std::size_t i = 0; i < resolved->size(); ++i)
        ASSERT_EQ(memoized->records()[i].addr, resolved->records()[i].addr);
    Workloads::dropCache();
}

TEST(TraceStore, AWarmTraceIsNotMadeAgainForAnArtifact)
{
    // The resolver runs per fill, but the producer only when the entry
    // has no loaded Trace: an artifact built while the Trace is warm is
    // packed from it, so a synthetic trace is generated once.
    std::atomic<int> resolves{0}, made{0};
    TraceStore store(
        [&](const std::string &name) -> Result<TraceSource> {
            ++resolves;
            return TraceSource{"", nullptr, [&made, name] {
                                   ++made;
                                   return std::make_shared<const Trace>(
                                       tinyTrace(name));
                               }};
        },
        1ull << 30);

    const auto trace = store.trace("alpha");
    ASSERT_TRUE(trace.ok()) << trace.status().toString();
    const auto artifact = store.artifact("alpha", 16);
    ASSERT_TRUE(artifact.ok()) << artifact.status().toString();
    EXPECT_EQ(resolves.load(), 2);
    EXPECT_EQ(made.load(), 1);
    EXPECT_EQ(store.counters().traceLoads, 1u);
    EXPECT_EQ(artifact.value()->refs(), trace.value()->size());

    // A producer's failure is the fill's status, and is not cached.
    TraceStore failing(
        [](const std::string &) -> Result<TraceSource> {
            return TraceSource{"", nullptr, []() -> std::shared_ptr<const Trace> {
                                   throw StatusError(
                                       Status::ioError("unreadable"));
                               }};
        },
        1ull << 30);
    const auto failed = failing.artifact("beta", 4);
    ASSERT_FALSE(failed.ok());
    EXPECT_NE(failed.status().toString().find("unreadable"),
              std::string::npos);
    EXPECT_EQ(failing.counters().loadFailures, 1u);
}

TEST(TraceStore, ArtifactsPackedFromATraceDoNotKeepIt)
{
    std::atomic<int> resolves{0};
    std::weak_ptr<const Trace> source;
    TraceStore store(
        [&](const std::string &name) -> Result<TraceSource> {
            ++resolves;
            auto trace = std::make_shared<const Trace>(tinyTrace(name));
            source = trace;
            return TraceSource{"", trace, nullptr};
        },
        1ull << 30);

    const auto artifact = store.artifact("alpha", 4);
    ASSERT_TRUE(artifact.ok()) << artifact.status().toString();
    // Detached: no pointer to the Trace the store let go of.
    EXPECT_EQ(artifact.value()->trace(), nullptr);
    EXPECT_TRUE(source.expired());
    EXPECT_EQ(artifact.value()->name(), "alpha");
    EXPECT_EQ(store.counters().traceLoads, 1u);
    EXPECT_EQ(store.counters().residentBytes, tinyArtifactBytes(64));
}

TEST(TraceStore, ColdIndexedChargesTheIndexAndViewBytes)
{
    // A cold artifact is charged what it holds, and nothing else: the
    // Trace it was packed from is not resident.
    TraceStore store(
        [&](const std::string &name) -> Result<TraceSource> {
            return decoded(tinyTrace(name));
        },
        1ull << 30);

    ASSERT_TRUE(store.artifact("alpha", 4).ok());
    EXPECT_EQ(store.counters().residentBytes, tinyArtifactBytes(64));
    EXPECT_EQ(store.counters().artifactBytes, tinyArtifactBytes(64));

    // A warm hit charges nothing more.
    ASSERT_TRUE(store.artifact("alpha", 4).ok());
    EXPECT_EQ(store.counters().residentBytes, tinyArtifactBytes(64));
}

/** What one call records under an installed tracer and collector:
 * its "index" spans and its IndexBuilds count. */
struct ArtifactBuilds
{
    std::size_t indexSpans = 0;
    std::uint64_t indexBuilds = 0;
};

template <class Call>
ArtifactBuilds
observeArtifactBuilds(Call call)
{
    obs::Tracer tracer;
    obs::MetricsCollector metrics;
    obs::Tracer::setActive(&tracer);
    {
        obs::ScopedMetrics install(&metrics);
        call();
    }
    obs::Tracer::setActive(nullptr);
    ArtifactBuilds seen;
    for (const obs::TraceEvent &event : tracer.sortedEvents())
        seen.indexSpans += std::string(event.category) == "index";
    seen.indexBuilds = metrics.total(obs::Counter::IndexBuilds);
    return seen;
}

TEST(TraceStore, ColdIndexedRecordsOneBuildLikeALocalSweep)
{
    const TinyFile file("filed", 5000);
    TraceStore store(
        [&](const std::string &name) -> Result<TraceSource> {
            if (name == "filed")
                return TraceSource{file.path, nullptr, nullptr};
            return decoded(tinyTrace(name, 5000));
        },
        1ull << 30);

    const Trace local = tinyTrace("alpha", 5000);
    const ArtifactBuilds swept = observeArtifactBuilds(
        [&] { ASSERT_TRUE(sweepSizes(local, {1024}, 4).allOk()); });
    // Packed from a Trace or straight from a file alike.
    for (const std::string name : {"alpha", "filed"}) {
        SCOPED_TRACE(name);
        const ArtifactBuilds cold = observeArtifactBuilds(
            [&] { ASSERT_TRUE(store.artifact(name, 4).ok()); });
        EXPECT_EQ(cold.indexSpans, 1u);
        EXPECT_EQ(cold.indexBuilds, 1u);
        EXPECT_EQ(swept.indexSpans, cold.indexSpans);
        EXPECT_EQ(swept.indexBuilds, cold.indexBuilds);

        const ArtifactBuilds warm = observeArtifactBuilds(
            [&] { ASSERT_TRUE(store.artifact(name, 4).ok()); });
        EXPECT_EQ(warm.indexSpans, 0u);
        EXPECT_EQ(warm.indexBuilds, 0u);
    }
}

TEST(TraceStore, FailedLoadIsNotCachedAndRetries)
{
    std::atomic<int> calls{0};
    TraceStore store(
        [&](const std::string &name) -> Result<TraceSource> {
            if (++calls % 2 == 1)
                return Status::ioError("disk on fire");
            return decoded(tinyTrace(name));
        },
        1ull << 30);

    const auto failed = store.trace("flaky");
    ASSERT_FALSE(failed.ok());
    EXPECT_EQ(failed.status().code(), StatusCode::IoError);
    EXPECT_FALSE(store.resident("flaky"));
    EXPECT_EQ(store.counters().loadFailures, 1u);
    EXPECT_EQ(store.counters().entries, 0u);

    const auto retried = store.trace("flaky");
    ASSERT_TRUE(retried.ok()) << retried.status().toString();
    EXPECT_EQ(calls.load(), 2);
    EXPECT_TRUE(store.resident("flaky"));

    // An artifact build fails and retries the same way, and its
    // failure leaves the warm Trace in place.
    const auto unbuilt = store.artifact("flaky", 4);
    ASSERT_FALSE(unbuilt.ok());
    EXPECT_EQ(unbuilt.status().code(), StatusCode::IoError);
    EXPECT_EQ(store.counters().loadFailures, 2u);
    EXPECT_TRUE(store.resident("flaky"));
    ASSERT_TRUE(store.artifact("flaky", 4).ok());
    EXPECT_EQ(calls.load(), 4);
    EXPECT_EQ(store.counters().indexBuilds, 1u);
}

TEST(TraceStore, BadTraceFileIsTheDecodersStatusAndNotCached)
{
    const std::string path =
        ::testing::TempDir() + "/dynex_store_missing.dxt2";
    std::remove(path.c_str());
    TraceStore store(
        [&](const std::string &) -> Result<TraceSource> {
            return TraceSource{path, nullptr, nullptr};
        },
        1ull << 30);

    const auto artifact = store.artifact("missing", 4);
    ASSERT_FALSE(artifact.ok());
    EXPECT_EQ(artifact.status().code(), readTraceFile(path).status().code());
    const auto trace = store.trace("missing");
    ASSERT_FALSE(trace.ok());
    EXPECT_EQ(trace.status().code(), readTraceFile(path).status().code());
    EXPECT_EQ(store.counters().loadFailures, 2u);
    EXPECT_EQ(store.counters().entries, 0u);
    EXPECT_FALSE(store.resident("missing"));
}

TEST(TraceStore, ThrowingLoaderBecomesAStatusNotACrash)
{
    TraceStore store(
        [](const std::string &) -> Result<TraceSource> {
            throw std::runtime_error("loader exploded");
        },
        1ull << 30);
    const auto result = store.trace("boom");
    ASSERT_FALSE(result.ok());
    EXPECT_NE(result.status().toString().find("loader exploded"),
              std::string::npos);
    const auto built = store.artifact("boom", 4);
    ASSERT_FALSE(built.ok());
    EXPECT_NE(built.status().toString().find("loader exploded"),
              std::string::npos);
}

TEST(TraceStore, EvictsLeastRecentlyUsedFirstWhenOverBudget)
{
    // Each entry is charged its artifact's bytes; pick a budget that
    // holds roughly two of the three.
    constexpr std::size_t kRefs = 4096;
    const std::uint64_t perEntry = tinyArtifactBytes(kRefs);
    TraceStore store(
        [&](const std::string &name) -> Result<TraceSource> {
            return decoded(tinyTrace(name, kRefs));
        },
        2 * perEntry + perEntry / 2);

    ASSERT_TRUE(store.artifact("one", 4).ok());
    ASSERT_TRUE(store.artifact("two", 4).ok());
    // Touch "one" so "two" becomes the LRU entry.
    ASSERT_TRUE(store.artifact("one", 4).ok());
    ASSERT_TRUE(store.artifact("three", 4).ok());

    EXPECT_TRUE(store.resident("one"));
    EXPECT_FALSE(store.resident("two")); // strict LRU order
    EXPECT_TRUE(store.resident("three"));

    const auto counters = store.counters();
    EXPECT_EQ(counters.evictions, 1u);
    EXPECT_EQ(counters.entries, 2u);
    EXPECT_EQ(counters.residentBytes, 2 * perEntry);
    EXPECT_EQ(counters.artifactBytes, 2 * perEntry);
    EXPECT_LE(counters.residentBytes, store.budgetBytes());

    // A fourth build evicts the new LRU ("one") but never the entry
    // being returned.
    ASSERT_TRUE(store.artifact("four", 4).ok());
    EXPECT_FALSE(store.resident("one"));
    EXPECT_TRUE(store.resident("four"));
    EXPECT_EQ(store.counters().evictions, 2u);

    // A loaded Trace is charged too: decoding "three" (16 B/ref)
    // pushes its own entry past the budget's share, so the LRU other
    // entry goes and "three" stays.
    ASSERT_TRUE(store.trace("three").ok());
    EXPECT_TRUE(store.resident("three"));
    EXPECT_FALSE(store.resident("four"));
    EXPECT_EQ(store.counters().evictions, 3u);
    EXPECT_EQ(store.counters().artifactBytes, perEntry);
}

TEST(TraceStore, EvictedTraceStaysValidForHolders)
{
    constexpr std::size_t kRefs = 2048;
    const std::uint64_t perTrace = kRefs * sizeof(MemRef);
    TraceStore store(
        [&](const std::string &name) -> Result<TraceSource> {
            return decoded(tinyTrace(name, kRefs));
        },
        perTrace + perTrace / 2);

    const auto held = store.trace("held");
    ASSERT_TRUE(held.ok());
    const auto heldArtifact = store.artifact("held", 4);
    ASSERT_TRUE(heldArtifact.ok());
    ASSERT_TRUE(store.trace("usurper").ok());
    EXPECT_FALSE(store.resident("held"));
    // The shared_ptrs keep the evicted Trace and artifact alive and
    // intact.
    EXPECT_EQ(held.value()->size(), kRefs);
    EXPECT_EQ(held.value()->name(), "held");
    EXPECT_EQ(heldArtifact.value()->refs(), kRefs);
    EXPECT_EQ(heldArtifact.value()->name(), "held");
    EXPECT_TRUE(sweepSizes(*heldArtifact.value(), {1024}).allOk());
}

TEST(TraceStore, ZeroBudgetStillServesButKeepsNothing)
{
    std::atomic<int> loads{0};
    TraceStore store(
        [&](const std::string &name) -> Result<TraceSource> {
            ++loads;
            return decoded(tinyTrace(name));
        },
        0);
    ASSERT_TRUE(store.artifact("a", 4).ok());
    ASSERT_TRUE(store.artifact("b", 4).ok());
    ASSERT_TRUE(store.artifact("a", 4).ok());
    ASSERT_TRUE(store.trace("b").ok());
    EXPECT_EQ(loads.load(), 4); // every lookup reloads
    EXPECT_EQ(store.counters().indexBuilds, 3u);
    // Only the entry being returned survives each eviction pass.
    EXPECT_EQ(store.counters().entries, 1u);
    EXPECT_TRUE(store.resident("b"));
    EXPECT_FALSE(store.resident("a"));
}

TEST(TraceStore, CachedViewSweepMatchesASelfPackedSweepByteForByte)
{
    // A loop nest whose bodies alias across the paper's size axis.
    TraceStore store(
        [](const std::string &name) -> Result<TraceSource> {
            Trace trace(name);
            for (int rep = 0; rep < 400; ++rep) {
                for (Addr a = 0; a < 48; ++a)
                    trace.append(ifetch(0x1000 + 4 * a));
                for (Addr a = 0; a < 16; ++a)
                    trace.append(ifetch(0x1000 + 8192 + 4 * a));
                trace.append(load(0x90000 + 8 * (rep % 97)));
            }
            return decoded(std::move(trace));
        },
        1ull << 30);
    const auto trace = store.trace("loops");
    ASSERT_TRUE(trace.ok()) << trace.status().toString();
    for (const std::uint32_t line : {4u, 16u}) {
        const auto warm = store.artifact("loops", line);
        ASSERT_TRUE(warm.ok()) << warm.status().toString();
        DynamicExclusionConfig config;
        config.useLastLine = line > 4;
        const SizeSweepOutcome cached =
            sweepSizes(*warm.value(), paperCacheSizes(), config);
        const SizeSweepOutcome packed = sweepSizes(
            *trace.value(), paperCacheSizes(), line, config);
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

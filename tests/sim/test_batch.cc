/**
 * @file
 * Tests of the `batched` engine name. The batched engine itself is
 * retired; its name (`--replay batched`, campaign `engine batched`,
 * DXP1 engine byte 0) is kept as an alias of the SoA kernel so
 * existing command lines, specs and clients still run. Every sweep the
 * alias selects, and every triad batch of the kernel pass it runs,
 * must be EXPECT_EQ-exact against the per-leg object models at every
 * thread count.
 */

#include <gtest/gtest.h>

#include "sim/kernel.h"
#include "sim/sweep.h"
#include "util/rng.h"
#include "util/thread_pool.h"

namespace dynex
{
namespace
{

/** Restores the automatic thread configuration when a test exits. */
struct ThreadCountGuard
{
    ~ThreadCountGuard() { ThreadPool::setConfiguredWorkers(0); }
};

void
expectStatsEq(const CacheStats &batched, const CacheStats &per_leg,
              const std::string &label)
{
    EXPECT_EQ(batched.accesses, per_leg.accesses) << label;
    EXPECT_EQ(batched.hits, per_leg.hits) << label;
    EXPECT_EQ(batched.misses, per_leg.misses) << label;
    EXPECT_EQ(batched.coldMisses, per_leg.coldMisses) << label;
    EXPECT_EQ(batched.fills, per_leg.fills) << label;
    EXPECT_EQ(batched.bypasses, per_leg.bypasses) << label;
    EXPECT_EQ(batched.evictions, per_leg.evictions) << label;
}

/** The engine every caller selects with the name "batched". */
ReplayEngine
batchedAlias()
{
    const auto engine = parseReplayEngine("batched");
    EXPECT_TRUE(engine.has_value());
    return engine.value_or(ReplayEngine::PerLeg);
}

/** A conflict-heavy loopy trace with a pseudo-random data sprinkle. */
Trace
batchTrace(std::size_t refs)
{
    Rng rng(0x8a7c3);
    Trace trace("batch");
    trace.reserve(refs);
    while (trace.size() < refs) {
        const Addr base = 0x1000 + 4 * rng.nextBelow(4096);
        const int body = 2 + static_cast<int>(rng.nextBelow(20));
        for (int j = 0; j < body && trace.size() < refs; ++j)
            trace.append(ifetch(base + 4 * static_cast<Addr>(j)));
        trace.append(load(0x90000 + 8 * rng.nextBelow(512)));
    }
    trace.mutableRecords().resize(refs);
    return trace;
}

TEST(BatchReplay, TriadBatchMatchesRunTriadAtEverySize)
{
    // 30000 refs is several kernel chunks plus a partial one.
    const Trace trace = batchTrace(30000);
    ASSERT_NE(trace.size() % detail::kBatchChunkRefs, 0u);
    const std::vector<std::uint64_t> sizes = {256, 1024, 4096,
                                              16 * 1024};
    for (const std::uint32_t line : {4u, 16u}) {
        const NextUseIndex index(trace, line, NextUseMode::RunStart);
        DynamicExclusionConfig config;
        config.useLastLine = line > 4;
        const TriadBatchOutcome batch = replayTriadKernel(
            PackedTraceView(trace, line), index, sizes, line, config,
            trace.name());
        ASSERT_TRUE(batch.allOk());
        ASSERT_EQ(batch.triads.size(), sizes.size());
        for (std::size_t s = 0; s < sizes.size(); ++s) {
            EXPECT_TRUE(batch.ok[s]);
            const TriadResult leg =
                runTriad(trace, index, sizes[s], line, config);
            const std::string label = "line " + std::to_string(line) +
                                      " size " +
                                      std::to_string(sizes[s]);
            expectStatsEq(batch.triads[s].dm, leg.dm, "dm " + label);
            expectStatsEq(batch.triads[s].de, leg.de, "de " + label);
            expectStatsEq(batch.triads[s].opt, leg.opt, "opt " + label);
        }
    }
}

TEST(BatchReplay, SweepSizesEnginesIdenticalAcrossWorkerCounts)
{
    ThreadCountGuard guard;
    const Trace trace = batchTrace(30000);
    const std::vector<std::uint64_t> sizes = {256, 1024, 4096};
    ThreadPool::setConfiguredWorkers(1);
    const auto reference =
        sweepSizes(trace, sizes, 4, {}, ReplayEngine::PerLeg);
    for (const unsigned threads : {1u, 2u, 8u}) {
        ThreadPool::setConfiguredWorkers(threads);
        for (const ReplayEngine engine :
             {batchedAlias(), ReplayEngine::PerLeg}) {
            const auto points = sweepSizes(trace, sizes, 4, {}, engine);
            ASSERT_EQ(points.size(), reference.size());
            for (std::size_t s = 0; s < points.size(); ++s) {
                EXPECT_EQ(points[s].dmMissPct, reference[s].dmMissPct)
                    << threads << " workers, point " << s;
                EXPECT_EQ(points[s].deMissPct, reference[s].deMissPct)
                    << threads << " workers, point " << s;
                EXPECT_EQ(points[s].optMissPct, reference[s].optMissPct)
                    << threads << " workers, point " << s;
            }
        }
    }
}

TEST(BatchReplay, SuiteAverageEnginesIdenticalAcrossWorkerCounts)
{
    ThreadCountGuard guard;
    const std::vector<std::string> names = {"mat300", "tomcatv"};
    const std::vector<std::uint64_t> sizes = {1024, 8 * 1024,
                                              32 * 1024};
    ThreadPool::setConfiguredWorkers(1);
    const auto reference = sweepSuiteAverage(
        names, 30000, sizes, 4, {}, false, false, ReplayEngine::PerLeg);
    for (const unsigned threads : {1u, 2u, 8u}) {
        ThreadPool::setConfiguredWorkers(threads);
        const auto batched =
            sweepSuiteAverage(names, 30000, sizes, 4, {}, false, false,
                              batchedAlias());
        ASSERT_EQ(batched.size(), reference.size());
        for (std::size_t s = 0; s < batched.size(); ++s) {
            EXPECT_EQ(batched[s].dmMissPct, reference[s].dmMissPct);
            EXPECT_EQ(batched[s].deMissPct, reference[s].deMissPct);
            EXPECT_EQ(batched[s].optMissPct, reference[s].optMissPct);
        }
    }
}

TEST(BatchReplay, SuiteLineSweepEnginesIdenticalAcrossWorkerCounts)
{
    ThreadCountGuard guard;
    const std::vector<std::string> names = {"tomcatv"};
    ThreadPool::setConfiguredWorkers(1);
    const auto reference =
        sweepSuiteLineSizes(names, 30000, 16 * 1024, {4, 16, 64}, {},
                            ReplayEngine::PerLeg);
    for (const unsigned threads : {1u, 2u, 8u}) {
        ThreadPool::setConfiguredWorkers(threads);
        const auto batched =
            sweepSuiteLineSizes(names, 30000, 16 * 1024, {4, 16, 64},
                                {}, batchedAlias());
        ASSERT_EQ(batched.size(), reference.size());
        for (std::size_t l = 0; l < batched.size(); ++l) {
            EXPECT_EQ(batched[l].lineBytes, reference[l].lineBytes);
            EXPECT_EQ(batched[l].dmMissPct, reference[l].dmMissPct);
            EXPECT_EQ(batched[l].deMissPct, reference[l].deMissPct);
            EXPECT_EQ(batched[l].optMissPct, reference[l].optMissPct);
        }
    }
}

TEST(BatchReplay, EmptyTraceYieldsZeroedStats)
{
    Trace trace("empty");
    const NextUseIndex index(trace, 4, NextUseMode::RunStart);
    const TriadBatchOutcome batch = replayTriadKernel(
        PackedTraceView(trace, 4), index, {256, 1024}, 4, {},
        trace.name());
    ASSERT_TRUE(batch.allOk());
    ASSERT_EQ(batch.triads.size(), 2u);
    for (const auto &triad : batch.triads) {
        EXPECT_EQ(triad.dm.accesses, 0u);
        EXPECT_EQ(triad.de.accesses, 0u);
        EXPECT_EQ(triad.opt.accesses, 0u);
    }
    const auto checked =
        sweepSizesChecked(trace, {256, 1024}, 4, {}, batchedAlias());
    ASSERT_TRUE(checked.allOk());
    for (const auto &point : checked.points) {
        EXPECT_EQ(point.dmMissPct, 0.0);
        EXPECT_EQ(point.deMissPct, 0.0);
        EXPECT_EQ(point.optMissPct, 0.0);
    }
}

} // namespace
} // namespace dynex

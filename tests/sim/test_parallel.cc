/**
 * @file
 * Tests of the parallel sweep engine: results must be bit-identical to
 * a serial run at every thread count, because the engine only
 * distributes independent simulations into pre-sized slots and reduces
 * serially in input order.
 */

#include <gtest/gtest.h>

#include "cache/direct_mapped.h"
#include "cache/optimal.h"
#include "sim/sweep.h"
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

Trace
conflictTrace()
{
    Trace trace("conflicts");
    for (int rep = 0; rep < 300; ++rep) {
        for (Addr a = 0; a < 24; ++a)
            trace.append(ifetch(0x1000 + 4 * a));
        for (Addr a = 0; a < 16; ++a)
            trace.append(ifetch(0x1000 + 512 + 4 * a));
        trace.append(load(0x9000 + 8 * (rep % 64)));
    }
    return trace;
}

std::vector<SizeSweepPoint>
sweepAt(unsigned threads, const Trace &trace)
{
    ThreadPool::setConfiguredWorkers(threads);
    const auto outcome = sweepSizes(trace, {64, 128, 256, 1024, 4096}, 4);
    EXPECT_TRUE(outcome.allOk());
    return outcome.points;
}

TEST(ParallelSweep, SizeSweepBitIdenticalAcrossThreadCounts)
{
    ThreadCountGuard guard;
    const Trace trace = conflictTrace();
    const auto serial = sweepAt(1, trace);
    for (const unsigned threads : {2u, 8u}) {
        const auto parallel = sweepAt(threads, trace);
        ASSERT_EQ(parallel.size(), serial.size());
        for (std::size_t i = 0; i < serial.size(); ++i) {
            EXPECT_EQ(parallel[i].sizeBytes, serial[i].sizeBytes);
            // Bit-identical, not approximately equal: the engine
            // promises the exact same doubles at any worker count.
            EXPECT_EQ(parallel[i].dmMissPct, serial[i].dmMissPct)
                << threads << " threads, point " << i;
            EXPECT_EQ(parallel[i].deMissPct, serial[i].deMissPct)
                << threads << " threads, point " << i;
            EXPECT_EQ(parallel[i].optMissPct, serial[i].optMissPct)
                << threads << " threads, point " << i;
        }
    }
}

TEST(ParallelSweep, SuiteAverageBitIdenticalAcrossThreadCounts)
{
    ThreadCountGuard guard;
    const std::vector<std::string> names = {"mat300", "tomcatv"};
    const std::vector<std::uint64_t> sizes = {1024, 8 * 1024,
                                              32 * 1024};
    ThreadPool::setConfiguredWorkers(1);
    const auto serial_outcome = sweepSuiteAverage(names, 30000, sizes, 4);
    ASSERT_TRUE(serial_outcome.allOk());
    const auto &serial = serial_outcome.points;
    for (const unsigned threads : {2u, 8u}) {
        ThreadPool::setConfiguredWorkers(threads);
        const auto outcome = sweepSuiteAverage(names, 30000, sizes, 4);
        ASSERT_TRUE(outcome.allOk()) << threads << " workers";
        const auto &parallel = outcome.points;
        ASSERT_EQ(parallel.size(), serial.size());
        for (std::size_t i = 0; i < serial.size(); ++i) {
            EXPECT_EQ(parallel[i].dmMissPct, serial[i].dmMissPct);
            EXPECT_EQ(parallel[i].deMissPct, serial[i].deMissPct);
            EXPECT_EQ(parallel[i].optMissPct, serial[i].optMissPct);
        }
    }
}

TEST(ParallelSweep, LineSweepBitIdenticalAcrossThreadCounts)
{
    ThreadCountGuard guard;
    const std::vector<std::string> names = {"tomcatv"};
    ThreadPool::setConfiguredWorkers(1);
    const auto serial =
        sweepSuiteLineSizes(names, 30000, 16 * 1024, {4, 16, 64});
    ThreadPool::setConfiguredWorkers(8);
    const auto parallel =
        sweepSuiteLineSizes(names, 30000, 16 * 1024, {4, 16, 64});
    ASSERT_EQ(parallel.size(), serial.size());
    for (std::size_t i = 0; i < serial.size(); ++i) {
        EXPECT_EQ(parallel[i].lineBytes, serial[i].lineBytes);
        EXPECT_EQ(parallel[i].dmMissPct, serial[i].dmMissPct);
        EXPECT_EQ(parallel[i].deMissPct, serial[i].deMissPct);
        EXPECT_EQ(parallel[i].optMissPct, serial[i].optMissPct);
    }
}

TEST(ParallelSweep, TriadMatchesIndividualReplays)
{
    ThreadCountGuard guard;
    ThreadPool::setConfiguredWorkers(4);
    const Trace trace = conflictTrace();
    const NextUseIndex index(trace, 4, NextUseMode::RunStart);
    const TriadResult triad = runTriad(trace, index, 256, 4);

    DirectMappedCache dm(CacheGeometry::directMapped(256, 4));
    DynamicExclusionCache de(CacheGeometry::directMapped(256, 4));
    OptimalDirectMappedCache opt(CacheGeometry::directMapped(256, 4),
                                 index, /*use_last_line=*/true);
    EXPECT_EQ(triad.dm.misses, runTrace(dm, trace).misses);
    EXPECT_EQ(triad.de.misses, runTrace(de, trace).misses);
    EXPECT_EQ(triad.opt.misses, runTrace(opt, trace).misses);
}

TEST(ParallelSweep, SuiteTriadGridHasInputShapeAndOrder)
{
    // The suite average is each benchmark's own sweepSizes, summed in
    // input order: one point per size, every benchmark contributing.
    ThreadCountGuard guard;
    ThreadPool::setConfiguredWorkers(8);
    const std::vector<std::string> names = {"mat300", "tomcatv"};
    const std::vector<std::uint64_t> sizes = {1024, 32 * 1024};
    const auto suite = sweepSuiteAverage(names, 20000, sizes, 4);
    ASSERT_TRUE(suite.allOk());
    ASSERT_EQ(suite.points.size(), sizes.size());

    std::vector<SizeSweepOutcome> rows;
    for (const std::string &name : names) {
        Trace trace = loadStream(name, 20000, StreamKind::Instructions);
        ASSERT_EQ(trace.size(), 20000u);
        trace.setName(name);
        rows.push_back(sweepSizes(trace, sizes, 4));
        ASSERT_TRUE(rows.back().allOk());
    }
    for (std::size_t s = 0; s < sizes.size(); ++s) {
        EXPECT_EQ(suite.points[s].sizeBytes, sizes[s]);
        EXPECT_EQ(suite.contributors[s], names.size());
        EXPECT_EQ(suite.points[s].dmMissPct,
                  (rows[0].points[s].dmMissPct +
                   rows[1].points[s].dmMissPct) / 2);
        EXPECT_EQ(suite.points[s].deMissPct,
                  (rows[0].points[s].deMissPct +
                   rows[1].points[s].deMissPct) / 2);
        EXPECT_EQ(suite.points[s].optMissPct,
                  (rows[0].points[s].optMissPct +
                   rows[1].points[s].optMissPct) / 2);
    }
    // Larger caches cannot miss more in these kernels.
    EXPECT_GE(rows[0].points[0].dmMissPct, rows[0].points[1].dmMissPct);
}

} // namespace
} // namespace dynex

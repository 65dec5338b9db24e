/** @file Unit tests of the sweep helpers. */

#include <gtest/gtest.h>

#include "sim/sweep.h"
#include "../test_helpers.h"

namespace dynex
{
namespace
{

TEST(Sweep, PaperAxesAreTheFiguresAxes)
{
    const auto &sizes = paperCacheSizes();
    ASSERT_EQ(sizes.size(), 8u);
    EXPECT_EQ(sizes.front(), 1024u);
    EXPECT_EQ(sizes.back(), 128u * 1024);
    const auto &lines = paperLineSizes();
    EXPECT_EQ(lines.front(), 4u);
    EXPECT_EQ(lines.back(), 64u);
}

TEST(Sweep, MissRatesFallWithCacheSize)
{
    // A conflict-heavy pattern over a few hundred bytes of "code".
    Trace trace("conflicts");
    for (int rep = 0; rep < 200; ++rep) {
        for (Addr a = 0; a < 24; ++a)
            trace.append(ifetch(0x1000 + 4 * a));
        for (Addr a = 0; a < 24; ++a)
            trace.append(ifetch(0x1000 + 256 + 4 * a));
    }
    const auto outcome = sweepSizes(trace, {64, 128, 256, 1024}, 4);
    ASSERT_TRUE(outcome.allOk());
    const auto &points = outcome.points;
    ASSERT_EQ(points.size(), 4u);
    for (std::size_t i = 1; i < points.size(); ++i) {
        EXPECT_LE(points[i].dmMissPct, points[i - 1].dmMissPct + 1e-9);
        EXPECT_LE(points[i].optMissPct, points[i - 1].optMissPct + 1e-9);
    }
    // At 1KB the whole footprint fits: only cold misses remain.
    EXPECT_LT(points.back().dmMissPct, 1.0);
}

TEST(Sweep, OptimalBoundsTheOtherCurves)
{
    Trace trace("mixed");
    for (int rep = 0; rep < 100; ++rep) {
        trace.append(ifetch(0x1000));
        trace.append(ifetch(0x1000 + 64));
        trace.append(ifetch(0x1000 + 4));
    }
    const auto outcome = sweepSizes(trace, {64, 128}, 4);
    ASSERT_TRUE(outcome.allOk());
    const auto &points = outcome.points;
    ASSERT_EQ(points.size(), 2u);
    for (const auto &point : points) {
        EXPECT_LE(point.optMissPct, point.dmMissPct + 1e-9);
        EXPECT_LE(point.optMissPct, point.deMissPct + 1e-9);
    }
}

TEST(Sweep, ImprovementAccessorsMatchDefinition)
{
    SizeSweepPoint point{1024, 10.0, 6.0, 5.0};
    EXPECT_DOUBLE_EQ(point.deImprovementPct(), 40.0);
    EXPECT_DOUBLE_EQ(point.optImprovementPct(), 50.0);
    LineSweepPoint line_point{16, 8.0, 6.0, 4.0};
    EXPECT_DOUBLE_EQ(line_point.deImprovementPct(), 25.0);
    EXPECT_DOUBLE_EQ(line_point.optImprovementPct(), 50.0);
}

TEST(Sweep, LineSizeSweepReducesMissRatesWithSpatialLocality)
{
    // A sequential-heavy trace benefits directly from longer lines;
    // the sweep helper must build a fresh run-start index per line
    // size and report falling rates.
    const auto points = sweepSuiteLineSizes({"tomcatv"}, 50000,
                                            32 * 1024, {4, 16, 64});
    ASSERT_EQ(points.size(), 3u);
    EXPECT_EQ(points[0].lineBytes, 4u);
    EXPECT_EQ(points[2].lineBytes, 64u);
    for (std::size_t i = 1; i < points.size(); ++i)
        EXPECT_LE(points[i].dmMissPct, points[i - 1].dmMissPct + 1e-9);
}

TEST(Sweep, SuiteAverageUsesRealBenchmarks)
{
    // Two tiny-footprint benchmarks at a small budget: sanity-check
    // the plumbing end to end without a long runtime.
    const auto outcome = sweepSuiteAverage({"mat300", "tomcatv"}, 50000,
                                           {1024, 32 * 1024}, 4);
    ASSERT_TRUE(outcome.allOk());
    const auto &points = outcome.points;
    ASSERT_EQ(points.size(), 2u);
    EXPECT_GE(points[0].dmMissPct, points[1].dmMissPct);
    EXPECT_LT(points[1].dmMissPct, 1.0)
        << "kernels fit a 32KB instruction cache";
}

} // namespace
} // namespace dynex

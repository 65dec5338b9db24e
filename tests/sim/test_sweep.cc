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

/** One hand-built leg with the given miss counts. */
TriadResult
legWithMisses(Count dm, Count de, Count opt)
{
    TriadResult leg;
    leg.dm.misses = dm;
    leg.de.misses = de;
    leg.opt.misses = opt;
    return leg;
}

/** A hand-built outcome over 1KB, 2KB, 4KB and 8KB, every leg OK. */
TriadBatchOutcome
handBuilt(std::vector<TriadResult> legs)
{
    TriadBatchOutcome outcome;
    outcome.ok.assign(legs.size(), 1);
    outcome.triads = std::move(legs);
    return outcome;
}

const std::vector<std::uint64_t> kHandSizes = {1024, 2048, 4096, 8192};

TEST(SweepOrderings, SoundLegsPassAndADeStepUpIsNoFailure)
{
    // DE rises from 2KB to 4KB: not guaranteed monotone, so fine.
    TriadBatchOutcome outcome = handBuilt(
        {legWithMisses(90, 60, 50), legWithMisses(80, 40, 40),
         legWithMisses(80, 45, 30), legWithMisses(10, 10, 10)});
    checkSweepOrderings(kHandSizes, outcome, "hand");
    EXPECT_TRUE(outcome.allOk());
    EXPECT_EQ(outcome.ok, std::vector<std::uint8_t>(4, 1));
}

TEST(SweepOrderings, EachBrokenOrderingFailsItsLegByName)
{
    struct Case
    {
        const char *ordering;
        std::uint64_t size;
        std::vector<TriadResult> legs;
    };
    const std::vector<Case> cases = {
        {"opt misses <= de misses", 2048,
         {legWithMisses(90, 60, 50), legWithMisses(80, 40, 41),
          legWithMisses(70, 40, 30), legWithMisses(60, 30, 20)}},
        {"opt misses <= dm misses", 8192,
         {legWithMisses(90, 60, 50), legWithMisses(80, 40, 40),
          legWithMisses(70, 40, 30), legWithMisses(20, 30, 21)}},
        {"dm misses never rise from 2KB to 4KB", 4096,
         {legWithMisses(90, 60, 50), legWithMisses(80, 40, 40),
          legWithMisses(81, 40, 30), legWithMisses(60, 30, 20)}},
        {"opt misses never rise from 1KB to 2KB", 2048,
         {legWithMisses(90, 60, 35), legWithMisses(80, 40, 36),
          legWithMisses(70, 40, 30), legWithMisses(60, 30, 20)}},
    };
    for (const Case &c : cases) {
        TriadBatchOutcome outcome = handBuilt(c.legs);
        checkSweepOrderings(kHandSizes, outcome, "hand");
        ASSERT_EQ(outcome.failures.size(), 1u) << c.ordering;
        const FailedLeg &failure = outcome.failures[0];
        EXPECT_EQ(failure.bench, "hand");
        EXPECT_EQ(failure.sizeBytes, c.size) << c.ordering;
        EXPECT_EQ(failure.model, "triad");
        EXPECT_EQ(failure.status.code(), StatusCode::Internal);
        EXPECT_NE(failure.status.message().find(c.ordering),
                  std::string::npos)
            << failure.status.message();
        for (std::size_t s = 0; s < kHandSizes.size(); ++s)
            EXPECT_EQ(outcome.ok[s] != 0, kHandSizes[s] != c.size)
                << c.ordering << " leg " << s;
    }
}

TEST(SweepOrderings, MonotonicityComparesConsecutiveOkLegsInLegOrder)
{
    // 2KB already failed: 4KB is compared with 1KB, and its rise
    // against 1KB is listed after the 2KB failure, in leg order.
    TriadBatchOutcome outcome = handBuilt(
        {legWithMisses(90, 60, 50), legWithMisses(200, 200, 200),
         legWithMisses(91, 60, 40), legWithMisses(60, 30, 20)});
    outcome.ok[1] = 0;
    outcome.failures.push_back(
        {"hand", 2048, "triad", Status::internal("injected")});
    checkSweepOrderings(kHandSizes, outcome, "hand");
    ASSERT_EQ(outcome.failures.size(), 2u);
    EXPECT_EQ(outcome.failures[0].sizeBytes, 2048u);
    EXPECT_EQ(outcome.failures[1].sizeBytes, 4096u);
    EXPECT_NE(outcome.failures[1].status.message().find(
                  "dm misses never rise from 1KB to 4KB"),
              std::string::npos)
        << outcome.failures[1].status.message();
    EXPECT_EQ(outcome.ok, (std::vector<std::uint8_t>{1, 0, 0, 1}));
}

TEST(SweepOrderings, SweepSizesChecksThemUnderBothEngines)
{
    // A real sweep passes under either engine: the checks hold for the
    // replay, not just for hand-built legs.
    const Trace trace = Trace::fromPattern(
        test::repeat(test::repeat("a", 10) + "b", 10) + test::repeat("ab", 10),
        0x10000, 1024);
    for (const ReplayEngine engine :
         {ReplayEngine::Kernel, ReplayEngine::PerLeg}) {
        const auto swept =
            sweepSizes(trace, {256, 512, 1024, 2048}, 4, {}, engine);
        EXPECT_TRUE(swept.allOk()) << replayEngineName(engine);
    }
}

} // namespace
} // namespace dynex

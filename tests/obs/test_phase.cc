/**
 * @file
 * Tests of obs::Phase, the one timer of a phase of work: it charges
 * its span, its counters and its latency series from one pair of clock
 * reads, so spans sum exactly (to the ns) to the counters they charge,
 * and with no sink installed it reads no clock and builds no name.
 */

#include <gtest/gtest.h>

#include <chrono>
#include <cstdio>
#include <string>

#include "obs/histogram.h"
#include "obs/metrics.h"
#include "obs/trace_events.h"
#include "sim/kernel.h"
#include "sim/sweep.h"
#include "sim/workloads.h"
#include "trace/trace_io.h"
#include "util/thread_pool.h"

namespace dynex
{
namespace
{

/** Installs a collector and a tracer for one test. */
struct Sinks
{
    obs::MetricsCollector metrics;
    obs::Tracer tracer;
    Sinks()
    {
        obs::setActiveMetrics(&metrics);
        obs::Tracer::setActive(&tracer);
    }
    ~Sinks()
    {
        obs::Tracer::setActive(nullptr);
        obs::setActiveMetrics(nullptr);
    }

    /** Total duration of the recorded spans of @p category. */
    std::uint64_t
    spanNs(const std::string &category) const
    {
        std::uint64_t sum = 0;
        for (const obs::TraceEvent &event : tracer.sortedEvents())
            if (category == event.category)
                sum += event.durNs;
        return sum;
    }
};

TEST(Phase, SpanCounterAndElapsedAreOneMeasurement)
{
    Sinks sinks;
    obs::HistogramSet latencies;
    std::uint64_t elapsed = 0;
    {
        obs::Phase phase("test", "phase",
                         {.ns = obs::Counter::TraceLoadNs,
                          .count = obs::Counter::TraceLoadRefs,
                          .latencies = &latencies,
                          .series = obs::Latency::Replay});
        phase.count(42);
        elapsed = phase.stop();
        EXPECT_EQ(phase.stop(), 0u);
    }
    ASSERT_GT(elapsed, 0u);
    EXPECT_EQ(sinks.spanNs("test"), elapsed);
    EXPECT_EQ(sinks.metrics.total(obs::Counter::TraceLoadNs), elapsed);
    EXPECT_EQ(sinks.metrics.total(obs::Counter::TraceLoadRefs), 42u);
    const obs::HistogramSnapshot snap =
        latencies.snapshot(obs::Latency::Replay);
    EXPECT_EQ(snap.count, 1u);
    EXPECT_EQ(snap.sumNs, elapsed);
    // A second stop, and the destructor, charge nothing more.
    EXPECT_EQ(sinks.tracer.sortedEvents().size(), 1u);
}

TEST(Phase, WithNoSinkItReadsNoClockAndBuildsNoName)
{
    bool named = false;
    obs::Phase phase("test", [&] {
        named = true;
        return std::string("never");
    });
    EXPECT_EQ(phase.stop(), 0u);
    EXPECT_FALSE(named);

    obs::Phase timed({.timed = true});
    EXPECT_GT(timed.stop(), 0u);
}

TEST(Phase, NameIsReadWhenThePhaseEnds)
{
    Sinks sinks;
    std::string produced;
    {
        const obs::Phase phase("test",
                               [&] { return "made " + produced; });
        produced = "late";
    }
    const auto events = sinks.tracer.sortedEvents();
    ASSERT_EQ(events.size(), 1u);
    EXPECT_EQ(events[0].name, "made late");
}

TEST(Phase, StartsAtAGivenTimePoint)
{
    const auto start =
        obs::Phase::Clock::now() - std::chrono::milliseconds(5);
    obs::Phase phase("test", "wait", {.timed = true}, start);
    EXPECT_GE(phase.stop(), 5'000'000u);
}

TEST(Phase, ACountIsChargedOnlyWhenReported)
{
    Sinks sinks;
    {
        const obs::Phase failed({.ns = obs::Counter::IndexBuildNs,
                                 .count = obs::Counter::IndexBuilds});
    }
    EXPECT_EQ(sinks.metrics.total(obs::Counter::IndexBuilds), 0u);
    EXPECT_GT(sinks.metrics.total(obs::Counter::IndexBuildNs), 0u);
}

TEST(Phase, DroppedSpanStillChargesItsCounter)
{
    Sinks sinks;
    {
        obs::Phase phase("test", "dropped",
                         {.ns = obs::Counter::TraceLoadNs});
        phase.dropSpan();
    }
    EXPECT_TRUE(sinks.tracer.sortedEvents().empty());
    EXPECT_GT(sinks.metrics.total(obs::Counter::TraceLoadNs), 0u);
}

/** Runs a test body at one worker and at four: an artifact's
 * SetSharing and next-use index are built as two pool jobs, which must
 * not move a nanosecond between a span and its counter. */
struct AtOneAndFourWorkers
{
    ~AtOneAndFourWorkers() { ThreadPool::setConfiguredWorkers(0); }

    template <typename Body>
    void
    run(Body body)
    {
        for (const unsigned workers : {1u, 4u}) {
            SCOPED_TRACE(std::to_string(workers) + " workers");
            ThreadPool::setConfiguredWorkers(workers);
            body();
        }
    }
};

TEST(Phase, SuiteSweepSpansSumToTheirCounters)
{
    AtOneAndFourWorkers().run([] {
        Sinks sinks;
        const SuiteAverageOutcome average =
            sweepSuiteAverage({"li", "mat300"}, 20000, {1024, 4096}, 4);
        ASSERT_TRUE(average.failures.empty());
        ASSERT_EQ(sinks.metrics.total(obs::Counter::IndexBuilds), 2u);
        EXPECT_EQ(sinks.spanNs("load"),
                  sinks.metrics.total(obs::Counter::TraceLoadNs));
        EXPECT_EQ(sinks.spanNs("index"),
                  sinks.metrics.total(obs::Counter::IndexBuildNs));
    });
}

TEST(Phase, FileArtifactIndexSpanIsItsLoadPlusItsBuild)
{
    const std::string path = ::testing::TempDir() + "/dynex_phase.dxt3";
    ASSERT_TRUE(writeTraceFile(Workloads::instructions("li", 20000), path,
                               TraceFormat::Dxt3)
                    .ok());
    AtOneAndFourWorkers().run([&] {
        Sinks sinks;
        ASSERT_TRUE(buildReplayArtifact(path, 4).ok());
        EXPECT_EQ(sinks.spanNs("index"),
                  sinks.metrics.total(obs::Counter::TraceLoadNs) +
                      sinks.metrics.total(obs::Counter::IndexBuildNs));
        EXPECT_EQ(sinks.metrics.total(obs::Counter::TraceLoadRefs),
                  20000u);
    });
    std::remove(path.c_str());
}

} // namespace
} // namespace dynex

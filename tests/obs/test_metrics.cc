/**
 * @file
 * Tests of the metrics registry and run reports: the deterministic
 * report must be byte-identical at 1, 2, and 8 workers (the golden
 * guarantee behind --metrics-out), leg slots must reflect exactly what
 * the sweep computed, and instrumentation must never perturb the
 * simulated results.
 */

#include <gtest/gtest.h>

#include "json_checker.h"
#include "obs/metrics.h"
#include "obs/run_report.h"
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

const std::vector<std::uint64_t> kSizes = {64, 128, 256, 1024, 4096};

struct SweptReport
{
    SizeSweepOutcome outcome;
    obs::RunReport report;
};

/** Run a checked size sweep at @p threads with a collector installed
 * and assemble its report. */
SweptReport
sweepWithMetrics(const Trace &trace, unsigned threads,
                 ReplayEngine engine)
{
    ThreadPool::setConfiguredWorkers(threads);
    obs::MetricsCollector collector;
    for (const std::uint64_t size : kSizes)
        collector.addLeg(trace.name(), size);

    SweptReport result;
    {
        obs::ScopedMetrics install(&collector);
        result.outcome =
            sweepSizesChecked(trace, kSizes, 4, {}, engine);
    }

    obs::RunInfo info;
    info.trace = trace.name();
    info.refs = trace.size();
    info.lineBytes = 4;
    info.engine = replayEngineName(engine);
    info.workers = ThreadPool::global().workers();
    std::vector<obs::ReportFailure> failures;
    for (const auto &failure : result.outcome.failures)
        failures.push_back({failure.bench, failure.sizeBytes,
                            failure.model,
                            failure.status.toString()});
    result.report =
        obs::RunReport::build(info, collector, std::move(failures));
    return result;
}

TEST(MetricsReport, DeterministicJsonIsGoldenAcrossWorkerCounts)
{
    ThreadCountGuard guard;
    const Trace trace = conflictTrace();
    for (const ReplayEngine engine :
         {ReplayEngine::Kernel, ReplayEngine::PerLeg}) {
        const std::string golden =
            sweepWithMetrics(trace, 1, engine)
                .report.toJson(obs::ReportDetail::Deterministic);
        for (const unsigned threads : {2u, 8u}) {
            const std::string json =
                sweepWithMetrics(trace, threads, engine)
                    .report.toJson(obs::ReportDetail::Deterministic);
            // Byte-for-byte: leg order, counter totals, and every
            // rendered double must be scheduling-independent.
            EXPECT_EQ(json, golden)
                << "engine " << replayEngineName(engine) << ", "
                << threads << " workers";
        }
    }
}

TEST(MetricsReport, LegSectionIdenticalAcrossEngines)
{
    ThreadCountGuard guard;
    const Trace trace = conflictTrace();
    // The full counters differ by design (only the kernel counts
    // replay chunks), but the legs — results, FSM events, miss rates —
    // must match exactly.
    const auto legsSection = [](const std::string &json) {
        const auto start = json.find("\"legs\"");
        const auto end = json.find("\"failures\"");
        return json.substr(start, end - start);
    };
    const std::string kernel = legsSection(
        sweepWithMetrics(trace, 4, ReplayEngine::Kernel)
            .report.toJson(obs::ReportDetail::Deterministic));
    const std::string per_leg = legsSection(
        sweepWithMetrics(trace, 4, ReplayEngine::PerLeg)
            .report.toJson(obs::ReportDetail::Deterministic));
    EXPECT_EQ(kernel, per_leg);
}

TEST(MetricsReport, LegSlotsMatchTheSweepOutcome)
{
    ThreadCountGuard guard;
    const Trace trace = conflictTrace();
    const SweptReport swept =
        sweepWithMetrics(trace, 2, ReplayEngine::Kernel);
    ASSERT_EQ(swept.report.legs.size(), kSizes.size());
    for (std::size_t s = 0; s < kSizes.size(); ++s) {
        const obs::LegMetrics &leg = swept.report.legs[s];
        const SizeSweepPoint &point = swept.outcome.points[s];
        EXPECT_EQ(leg.bench, trace.name());
        EXPECT_EQ(leg.sizeBytes, kSizes[s]);
        EXPECT_TRUE(leg.done);
        EXPECT_FALSE(leg.failed);
        EXPECT_EQ(leg.refs, trace.size());
        // Same doubles, not approximately equal: the slot holds the
        // stats the sweep's own points were computed from.
        EXPECT_EQ(leg.dm.missPercent(), point.dmMissPct);
        EXPECT_EQ(leg.de.missPercent(), point.deMissPct);
        EXPECT_EQ(leg.opt.missPercent(), point.optMissPct);
        if (FsmEventCounts::enabled) {
            EXPECT_EQ(leg.deEvents.of(FsmEvent::Hit), leg.de.hits);
            EXPECT_EQ(leg.deEvents.of(FsmEvent::Bypass),
                      leg.de.bypasses);
        }
    }
}

TEST(MetricsReport, CountersTrackTheRunShape)
{
    ThreadCountGuard guard;
    const Trace trace = conflictTrace();
    const SweptReport swept =
        sweepWithMetrics(trace, 4, ReplayEngine::Kernel);
    const auto counter = [&](obs::Counter c) {
        return swept.report.counters[static_cast<std::size_t>(c)];
    };
    EXPECT_EQ(counter(obs::Counter::IndexBuilds), 1u);
    EXPECT_GT(counter(obs::Counter::IndexBuildNs), 0u);
    // One chunk per started 4096-reference block of the trace.
    const std::uint64_t chunks = (trace.size() + 4095) / 4096;
    EXPECT_EQ(counter(obs::Counter::ReplayChunks), chunks);
    // Single-trace sweeps never call loadStream.
    EXPECT_EQ(counter(obs::Counter::TraceLoadRefs), 0u);
}

TEST(MetricsReport, InstrumentationDoesNotPerturbResults)
{
    ThreadCountGuard guard;
    const Trace trace = conflictTrace();
    for (const ReplayEngine engine :
         {ReplayEngine::Kernel, ReplayEngine::PerLeg}) {
        ThreadPool::setConfiguredWorkers(2);
        const auto bare = sweepSizesChecked(trace, kSizes, 4, {}, engine);
        const auto observed = sweepWithMetrics(trace, 2, engine);
        ASSERT_EQ(bare.points.size(), observed.outcome.points.size());
        for (std::size_t s = 0; s < bare.points.size(); ++s) {
            EXPECT_EQ(bare.points[s].dmMissPct,
                      observed.outcome.points[s].dmMissPct);
            EXPECT_EQ(bare.points[s].deMissPct,
                      observed.outcome.points[s].deMissPct);
            EXPECT_EQ(bare.points[s].optMissPct,
                      observed.outcome.points[s].optMissPct);
        }
    }
}

TEST(MetricsReport, JsonParsesAndCarriesTheSchema)
{
    ThreadCountGuard guard;
    const Trace trace = conflictTrace();
    const std::string json =
        sweepWithMetrics(trace, 2, ReplayEngine::Kernel)
            .report.toJson(obs::ReportDetail::Full);
    const auto doc = testjson::JsonParser::parse(json);
    ASSERT_TRUE(doc.has_value()) << json;
    ASSERT_EQ(doc->kind, testjson::JsonValue::Kind::Object);
    const auto *schema = doc->find("schema");
    ASSERT_NE(schema, nullptr);
    EXPECT_EQ(schema->text, "dynex-metrics-v1");
    const auto *legs = doc->find("legs");
    ASSERT_NE(legs, nullptr);
    EXPECT_EQ(legs->items.size(), kSizes.size());
    const auto *run = doc->find("run");
    ASSERT_NE(run, nullptr);
    EXPECT_NE(run->find("workers"), nullptr);

    // Deterministic detail drops the run-varying fields entirely.
    const std::string stable =
        sweepWithMetrics(trace, 2, ReplayEngine::Kernel)
            .report.toJson(obs::ReportDetail::Deterministic);
    const auto stable_doc = testjson::JsonParser::parse(stable);
    ASSERT_TRUE(stable_doc.has_value());
    EXPECT_EQ(stable_doc->find("run")->find("workers"), nullptr);
    EXPECT_EQ(stable.find("Ns\""), std::string::npos)
        << "no nanosecond fields in the deterministic report";
}

TEST(MetricsReport, CsvHasOneRowPerLeg)
{
    ThreadCountGuard guard;
    const Trace trace = conflictTrace();
    const std::string csv =
        sweepWithMetrics(trace, 2, ReplayEngine::Kernel)
            .report.toCsv(obs::ReportDetail::Deterministic);
    std::size_t lines = 0;
    for (const char c : csv)
        lines += c == '\n';
    EXPECT_EQ(lines, 1 + kSizes.size()); // header + legs
    EXPECT_EQ(csv.find("replay_ns"), std::string::npos);
    EXPECT_NE(csv.find("bench,size_bytes,ok"), std::string::npos);
    EXPECT_NE(csv.find("de_bypass"), std::string::npos);
}

TEST(MetricsReport, FailedLegsAreMarkedAndListed)
{
    ThreadCountGuard guard;
    const Trace trace = conflictTrace();
    setSweepFaultHook(
        [](const std::string &, std::uint64_t size_bytes) {
            if (size_bytes == 256)
                throw StatusError(Status::internal("injected"));
        });
    const SweptReport swept =
        sweepWithMetrics(trace, 2, ReplayEngine::Kernel);
    setSweepFaultHook({});

    ASSERT_EQ(swept.report.failures.size(), 1u);
    EXPECT_EQ(swept.report.failures[0].sizeBytes, 256u);
    bool saw_failed = false;
    for (const obs::LegMetrics &leg : swept.report.legs) {
        if (leg.sizeBytes == 256) {
            EXPECT_TRUE(leg.failed);
            EXPECT_FALSE(leg.done);
            saw_failed = true;
        } else {
            EXPECT_TRUE(leg.done);
            EXPECT_FALSE(leg.failed);
        }
    }
    EXPECT_TRUE(saw_failed);
    const std::string json =
        swept.report.toJson(obs::ReportDetail::Deterministic);
    EXPECT_NE(json.find("\"failure\":"), std::string::npos);
}

TEST(MetricsCollector, ShardedCountersSumAcrossThreads)
{
    ThreadCountGuard guard;
    ThreadPool::setConfiguredWorkers(8);
    obs::MetricsCollector collector;
    {
        obs::ScopedMetrics install(&collector);
        ThreadPool::global().parallelFor(64, [](std::size_t i) {
            obs::activeMetrics()->add(obs::Counter::ReplayChunks,
                                      i + 1);
        });
    }
    // 1 + 2 + ... + 64, whatever threads the increments landed on.
    EXPECT_EQ(collector.total(obs::Counter::ReplayChunks), 64u * 65 / 2);
    EXPECT_EQ(obs::activeMetrics(), nullptr);
}

TEST(MetricsCollector, UnregisteredLegsAreInvisible)
{
    obs::MetricsCollector collector;
    collector.addLeg("a", 64);
    EXPECT_NE(collector.leg("a", 64), nullptr);
    EXPECT_EQ(collector.leg("a", 128), nullptr);
    EXPECT_EQ(collector.leg("b", 64), nullptr);
    EXPECT_EQ(collector.legCount(), 1u);
}

} // namespace
} // namespace dynex

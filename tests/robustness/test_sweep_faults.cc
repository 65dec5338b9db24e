/**
 * @file
 * Tests of fault-tolerant sweep execution: an injected failing leg is
 * captured as a FailedLeg while every other leg completes bit-identical
 * to an unfaulted run, at 1, 2, and 8 workers and under both replay
 * engines; callers that must not fail throw it (throwIfFailed, and
 * the line sweeps) under either engine.
 */

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "sim/sweep.h"
#include "util/status.h"
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

/** Uninstalls the sweep fault hook when a test exits. */
struct FaultHookGuard
{
    ~FaultHookGuard() { setSweepFaultHook({}); }
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

/** Installs a hook failing exactly (bench, size_bytes) legs. */
void
injectLegFault(const std::string &bench, std::uint64_t size_bytes)
{
    setSweepFaultHook([bench, size_bytes](const std::string &b,
                                          std::uint64_t s) {
        if (b == bench && s == size_bytes)
            throw StatusError(Status::internal("injected fault"));
    });
}

const std::vector<std::uint64_t> kSizes = {64, 128, 256, 1024, 4096};
constexpr std::uint64_t kFaultSize = 256;
constexpr std::size_t kFaultIndex = 2;

void
expectSizeSweepSurvivesLegFault(ReplayEngine engine, unsigned threads)
{
    SCOPED_TRACE(std::string("engine=") + replayEngineName(engine) +
                 " threads=" + std::to_string(threads));
    ThreadPool::setConfiguredWorkers(threads);
    const Trace trace = conflictTrace();

    setSweepFaultHook({});
    const auto unfaulted = sweepSizes(trace, kSizes, 4, {}, engine);
    ASSERT_TRUE(unfaulted.allOk());
    const auto &clean = unfaulted.points;

    injectLegFault(trace.name(), kFaultSize);
    const auto faulted = sweepSizes(trace, kSizes, 4, {}, engine);

    ASSERT_EQ(faulted.points.size(), kSizes.size());
    ASSERT_EQ(faulted.failures.size(), 1u);
    EXPECT_FALSE(faulted.allOk());
    const FailedLeg &failed = faulted.failures[0];
    EXPECT_EQ(failed.bench, trace.name());
    EXPECT_EQ(failed.sizeBytes, kFaultSize);
    EXPECT_EQ(failed.status.code(), StatusCode::Internal);
    EXPECT_EQ(failed.status.message(), "injected fault");

    for (std::size_t s = 0; s < kSizes.size(); ++s) {
        EXPECT_EQ(faulted.points[s].sizeBytes, kSizes[s]);
        if (s == kFaultIndex) {
            EXPECT_FALSE(faulted.ok[s]);
            continue;
        }
        ASSERT_TRUE(faulted.ok[s]) << "size " << kSizes[s];
        // Bit-identical to the unfaulted sweep, not approximately so.
        EXPECT_EQ(faulted.points[s].dmMissPct, clean[s].dmMissPct);
        EXPECT_EQ(faulted.points[s].deMissPct, clean[s].deMissPct);
        EXPECT_EQ(faulted.points[s].optMissPct, clean[s].optMissPct);
    }
}

TEST(SweepFaults, SizeSweepSurvivesOneFailingLeg)
{
    ThreadCountGuard threads;
    FaultHookGuard hook;
    for (const ReplayEngine engine :
         {ReplayEngine::Kernel, ReplayEngine::PerLeg})
        for (const unsigned workers : {1u, 2u, 8u})
            expectSizeSweepSurvivesLegFault(engine, workers);
}

TEST(SweepFaults, CheckedSweepWithoutFaultsMatchesUnchecked)
{
    // Without faults, the sweep over a caller-held artifact (the
    // served path) and the one that builds its own agree exactly.
    ThreadCountGuard threads;
    FaultHookGuard hook;
    setSweepFaultHook({});
    const Trace trace = conflictTrace();
    const auto artifact = buildReplayArtifact(trace, 4, trace.name());
    for (const ReplayEngine engine :
         {ReplayEngine::Kernel, ReplayEngine::PerLeg}) {
        const auto built = sweepSizes(trace, kSizes, 4, {}, engine);
        ASSERT_TRUE(built.allOk());
        const auto &clean = built.points;
        const auto checked = sweepSizes(*artifact, kSizes, {}, engine);
        EXPECT_TRUE(checked.allOk());
        for (std::size_t s = 0; s < kSizes.size(); ++s) {
            ASSERT_TRUE(checked.ok[s]);
            EXPECT_EQ(checked.points[s].dmMissPct, clean[s].dmMissPct);
            EXPECT_EQ(checked.points[s].deMissPct, clean[s].deMissPct);
            EXPECT_EQ(checked.points[s].optMissPct,
                      clean[s].optMissPct);
        }
    }
}

/** The suite average of @p names with no fault injected. */
SuiteAverageOutcome
cleanAverage(const std::vector<std::string> &names, Count refs,
             const std::vector<std::uint64_t> &sizes)
{
    setSweepFaultHook({});
    auto outcome = sweepSuiteAverage(names, refs, sizes, 4);
    EXPECT_TRUE(outcome.allOk());
    return outcome;
}

/** Expect @p got's point to be @p want's, bit for bit. */
void
expectSamePoint(const SizeSweepPoint &got, const SizeSweepPoint &want)
{
    EXPECT_EQ(got.sizeBytes, want.sizeBytes);
    EXPECT_EQ(got.dmMissPct, want.dmMissPct);
    EXPECT_EQ(got.deMissPct, want.deMissPct);
    EXPECT_EQ(got.optMissPct, want.optMissPct);
}

TEST(SweepFaults, SuiteSweepSurvivesOneFailingLeg)
{
    ThreadCountGuard threads;
    FaultHookGuard hook;
    const std::vector<std::string> names = {"mat300", "tomcatv"};
    const std::vector<std::uint64_t> sizes = {1024, 8 * 1024,
                                              32 * 1024};

    ThreadPool::setConfiguredWorkers(1);
    const auto clean = cleanAverage(names, 30000, sizes);
    const auto tomcatv = cleanAverage({"tomcatv"}, 30000, sizes);

    for (const ReplayEngine engine :
         {ReplayEngine::Kernel, ReplayEngine::PerLeg}) {
        for (const unsigned workers : {1u, 2u, 8u}) {
            SCOPED_TRACE(std::string(replayEngineName(engine)) +
                         " workers=" + std::to_string(workers));
            ThreadPool::setConfiguredWorkers(workers);
            injectLegFault("mat300", 8 * 1024);
            const auto faulted = sweepSuiteAverage(
                names, 30000, sizes, 4, {}, StreamKind::Instructions,
                engine);

            ASSERT_EQ(faulted.points.size(), sizes.size());
            ASSERT_EQ(faulted.failures.size(), 1u);
            EXPECT_EQ(faulted.failures[0].bench, "mat300");
            EXPECT_EQ(faulted.failures[0].sizeBytes, 8u * 1024);
            EXPECT_EQ(faulted.contributors,
                      (std::vector<Count>{2, 1, 2}));
            for (std::size_t s = 0; s < sizes.size(); ++s) {
                ASSERT_TRUE(faulted.ok[s]) << sizes[s];
                // Only tomcatv's leg survives at the faulted size;
                // elsewhere both legs match the unfaulted sweep.
                expectSamePoint(faulted.points[s], s == 1
                                                       ? tomcatv.points[s]
                                                       : clean.points[s]);
            }
        }
    }
}

TEST(SweepFaults, WholeBenchmarkFailureVoidsOnlyThatRow)
{
    ThreadCountGuard threads;
    FaultHookGuard hook;
    const std::vector<std::string> names = {"mat300", "tomcatv"};
    const std::vector<std::uint64_t> sizes = {1024, 32 * 1024};

    ThreadPool::setConfiguredWorkers(2);
    const auto mat300 = cleanAverage({"mat300"}, 20000, sizes);

    // size_bytes == 0 is the per-benchmark setup probe.
    injectLegFault("tomcatv", 0);
    const auto faulted = sweepSuiteAverage(names, 20000, sizes, 4);

    ASSERT_EQ(faulted.failures.size(), 1u);
    EXPECT_EQ(faulted.failures[0].bench, "tomcatv");
    EXPECT_EQ(faulted.failures[0].sizeBytes, 0u)
        << "0 marks a whole-benchmark failure";
    for (std::size_t s = 0; s < sizes.size(); ++s) {
        EXPECT_TRUE(faulted.ok[s]);
        EXPECT_EQ(faulted.contributors[s], 1u);
        expectSamePoint(faulted.points[s], mat300.points[s]);
    }
}

TEST(SweepFaults, SuiteAverageSkipsFailedContributors)
{
    ThreadCountGuard threads;
    FaultHookGuard hook;
    const std::vector<std::string> names = {"mat300", "tomcatv"};
    const std::vector<std::uint64_t> sizes = {1024, 32 * 1024};
    ThreadPool::setConfiguredWorkers(2);

    injectLegFault("mat300", 1024);
    const auto outcome = sweepSuiteAverage(names, 20000, sizes, 4);
    ASSERT_EQ(outcome.failures.size(), 1u);
    ASSERT_EQ(outcome.contributors.size(), sizes.size());
    EXPECT_EQ(outcome.contributors[0], 1u)
        << "only tomcatv contributes at the faulted size";
    EXPECT_EQ(outcome.contributors[1], 2u);
    EXPECT_TRUE(outcome.ok[0]);
    EXPECT_TRUE(outcome.ok[1]);

    // The surviving-benchmark average at the faulted size must equal
    // tomcatv's own miss rates.
    const auto alone = cleanAverage({"tomcatv"}, 20000, sizes);
    EXPECT_EQ(outcome.points[0].dmMissPct, alone.points[0].dmMissPct);
    EXPECT_EQ(outcome.points[0].deMissPct, alone.points[0].deMissPct);
}

/** Runs @p sweep and expects it to throw the injected fault. */
template <class Sweep>
void
expectInjectedFaultThrown(const char *what, Sweep sweep)
{
    SCOPED_TRACE(what);
    try {
        sweep();
        ADD_FAILURE() << "the injected leg fault did not propagate";
    } catch (const StatusError &e) {
        EXPECT_EQ(e.status().code(), StatusCode::Internal);
        EXPECT_EQ(e.status().message(), "injected fault");
    }
}

TEST(SweepFaults, UncheckedSuiteSweepsThrowAnInjectedLegFault)
{
    // Both engines must consult the fault hook on every leg, so a
    // caller that must not fail sees the same fault whichever engine
    // replays it.
    ThreadCountGuard threads;
    FaultHookGuard hook;
    const std::vector<std::string> names = {"mat300", "tomcatv"};
    const std::vector<std::uint64_t> sizes = {1024, 8 * 1024};
    ThreadPool::setConfiguredWorkers(2);
    injectLegFault("tomcatv", 8 * 1024);
    for (const ReplayEngine engine :
         {ReplayEngine::Kernel, ReplayEngine::PerLeg}) {
        SCOPED_TRACE(replayEngineName(engine));
        expectInjectedFaultThrown("sweepSuiteAverage", [&] {
            throwIfFailed(sweepSuiteAverage(names, 20000, sizes, 4, {},
                                            StreamKind::Instructions,
                                            engine)
                              .failures);
        });
        expectInjectedFaultThrown("sweepSuiteLineSizes", [&] {
            (void)sweepSuiteLineSizes(names, 20000, 8 * 1024, {4, 16},
                                      {}, engine);
        });
    }
    // The line axis makes the per-benchmark setup probe too.
    injectLegFault("tomcatv", 0);
    expectInjectedFaultThrown("sweepSuiteLineSizes setup", [&] {
        (void)sweepSuiteLineSizes(names, 20000, 8 * 1024, {4, 16});
    });
}

TEST(FailedLegFormatting, ToStringNamesBenchSizeAndStatus)
{
    FailedLeg leg;
    leg.bench = "mat300";
    leg.sizeBytes = 8 * 1024;
    leg.status = Status::internal("injected fault");
    const std::string text = leg.toString();
    EXPECT_NE(text.find("mat300"), std::string::npos);
    EXPECT_NE(text.find("8KB"), std::string::npos);
    EXPECT_NE(text.find("injected fault"), std::string::npos);

    FailedLeg whole;
    whole.bench = "tomcatv";
    whole.status = Status::ioError("trace load failed");
    EXPECT_NE(whole.toString().find("all"), std::string::npos);
}

} // namespace
} // namespace dynex

/**
 * @file
 * Tests of fault-tolerant sweep execution: an injected failing leg is
 * captured as a FailedLeg while every other leg completes bit-identical
 * to an unfaulted run, at 1, 2, and 8 workers and under both replay
 * engines; the unchecked sweeps throw it under either engine.
 */

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "sim/parallel.h"
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
    const auto clean = sweepSizes(trace, kSizes, 4, {}, engine);

    injectLegFault(trace.name(), kFaultSize);
    const auto faulted = sweepSizesChecked(trace, kSizes, 4, {}, engine);

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
    ThreadCountGuard threads;
    FaultHookGuard hook;
    setSweepFaultHook({});
    const Trace trace = conflictTrace();
    for (const ReplayEngine engine :
         {ReplayEngine::Kernel, ReplayEngine::PerLeg}) {
        const auto clean = sweepSizes(trace, kSizes, 4, {}, engine);
        const auto checked =
            sweepSizesChecked(trace, kSizes, 4, {}, engine);
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

TEST(SweepFaults, SuiteSweepSurvivesOneFailingLeg)
{
    ThreadCountGuard threads;
    FaultHookGuard hook;
    const std::vector<std::string> names = {"mat300", "tomcatv"};
    const std::vector<std::uint64_t> sizes = {1024, 8 * 1024,
                                              32 * 1024};

    setSweepFaultHook({});
    ThreadPool::setConfiguredWorkers(1);
    const auto clean = sweepSuiteTriads(names, 30000, sizes, 4, {},
                                        StreamKind::Instructions);

    for (const ReplayEngine engine :
         {ReplayEngine::Kernel, ReplayEngine::PerLeg}) {
        for (const unsigned workers : {1u, 2u, 8u}) {
            SCOPED_TRACE("workers=" + std::to_string(workers));
            ThreadPool::setConfiguredWorkers(workers);
            injectLegFault("mat300", 8 * 1024);
            const auto faulted = sweepSuiteTriadsChecked(
                names, 30000, sizes, 4, {}, StreamKind::Instructions,
                engine);

            ASSERT_EQ(faulted.grid.size(), names.size());
            ASSERT_EQ(faulted.failures.size(), 1u);
            EXPECT_EQ(faulted.failures[0].bench, "mat300");
            EXPECT_EQ(faulted.failures[0].sizeBytes, 8u * 1024);

            for (std::size_t b = 0; b < names.size(); ++b) {
                for (std::size_t s = 0; s < sizes.size(); ++s) {
                    const bool hit_leg = b == 0 && s == 1;
                    EXPECT_EQ(static_cast<bool>(faulted.ok[b][s]),
                              !hit_leg)
                        << names[b] << " @ " << sizes[s];
                    if (hit_leg)
                        continue;
                    EXPECT_EQ(faulted.grid[b][s].dm.misses,
                              clean[b][s].dm.misses);
                    EXPECT_EQ(faulted.grid[b][s].de.misses,
                              clean[b][s].de.misses);
                    EXPECT_EQ(faulted.grid[b][s].opt.misses,
                              clean[b][s].opt.misses);
                }
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

    setSweepFaultHook({});
    ThreadPool::setConfiguredWorkers(2);
    const auto clean = sweepSuiteTriads(names, 20000, sizes, 4, {},
                                        StreamKind::Instructions);

    // size_bytes == 0 is the per-benchmark setup probe.
    injectLegFault("tomcatv", 0);
    const auto faulted = sweepSuiteTriadsChecked(
        names, 20000, sizes, 4, {}, StreamKind::Instructions);

    ASSERT_EQ(faulted.failures.size(), 1u);
    EXPECT_EQ(faulted.failures[0].bench, "tomcatv");
    EXPECT_EQ(faulted.failures[0].sizeBytes, 0u)
        << "0 marks a whole-benchmark failure";
    for (std::size_t s = 0; s < sizes.size(); ++s) {
        EXPECT_TRUE(faulted.ok[0][s]);
        EXPECT_FALSE(faulted.ok[1][s]);
        EXPECT_EQ(faulted.grid[0][s].dm.misses, clean[0][s].dm.misses);
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
    const auto outcome =
        sweepSuiteAverageChecked(names, 20000, sizes, 4);
    ASSERT_EQ(outcome.failures.size(), 1u);
    ASSERT_EQ(outcome.contributors.size(), sizes.size());
    EXPECT_EQ(outcome.contributors[0], 1u)
        << "only tomcatv contributes at the faulted size";
    EXPECT_EQ(outcome.contributors[1], 2u);
    EXPECT_TRUE(outcome.ok[0]);
    EXPECT_TRUE(outcome.ok[1]);

    // The surviving-benchmark average at the faulted size must equal
    // tomcatv's own miss rates.
    setSweepFaultHook({});
    const auto grid = sweepSuiteTriads({"tomcatv"}, 20000, sizes, 4, {},
                                       StreamKind::Instructions);
    EXPECT_EQ(outcome.points[0].dmMissPct, grid[0][0].dmMissPct());
    EXPECT_EQ(outcome.points[0].deMissPct, grid[0][0].deMissPct());
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
    // Both engines must consult the fault hook on every leg, so an
    // unchecked sweep fails the same way whichever engine replays it.
    ThreadCountGuard threads;
    FaultHookGuard hook;
    const std::vector<std::string> names = {"mat300", "tomcatv"};
    const std::vector<std::uint64_t> sizes = {1024, 8 * 1024};
    ThreadPool::setConfiguredWorkers(2);
    injectLegFault("tomcatv", 8 * 1024);
    for (const ReplayEngine engine :
         {ReplayEngine::Kernel, ReplayEngine::PerLeg}) {
        SCOPED_TRACE(replayEngineName(engine));
        expectInjectedFaultThrown("sweepSuiteTriads", [&] {
            (void)sweepSuiteTriads(names, 20000, sizes, 4, {},
                                   StreamKind::Instructions, engine);
        });
        expectInjectedFaultThrown("sweepSuiteAverage", [&] {
            (void)sweepSuiteAverage(names, 20000, sizes, 4, {}, false,
                                    false, engine);
        });
        expectInjectedFaultThrown("sweepSuiteLineSizes", [&] {
            (void)sweepSuiteLineSizes(names, 20000, 8 * 1024, {4, 16},
                                      {}, engine);
        });
    }
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

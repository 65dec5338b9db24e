/**
 * @file
 * AdmissionController unit tests. The controller is clock-free (every
 * entry point takes an explicit now_ns), so these tests drive time by
 * hand: EWMA convergence of the cost model, budget sheds with
 * monotonic clamped retry-after hints, the lone-request exception,
 * per-client token-bucket fairness with refill, the oversized-request
 * burst clamp, release accounting, and the bucket LRU bound.
 */

#include <gtest/gtest.h>

#include <string>

#include "server/admission.h"

namespace dynex::server
{
namespace
{

constexpr std::uint64_t kMs = 1'000'000; // ns per ms

AdmissionConfig
openConfig()
{
    // Generous budgets so individual tests tighten only the knob they
    // exercise.
    AdmissionConfig config;
    config.costBudgetNs = 1'000'000 * kMs;
    config.clientBurstNs = 1'000'000 * kMs;
    config.clientRefillNsPerSec = 1'000'000 * kMs;
    return config;
}

TEST(Admission, DisabledControllerAdmitsEverythingAtZeroCost)
{
    AdmissionConfig config;
    config.enabled = false;
    AdmissionController admission(config);
    const AdmissionDecision decision = admission.admit(
        "anyone", WorkKind::SweepKernel, 1'000'000'000, 36, 0);
    EXPECT_TRUE(decision.admitted);
    EXPECT_EQ(decision.costNs, 0u);
    EXPECT_EQ(admission.outstandingNs(), 0u);
}

TEST(Admission, TrivialWorkIsNeverCosted)
{
    AdmissionController admission(AdmissionConfig{});
    const AdmissionDecision decision =
        admission.admit("c", WorkKind::Trivial, 1u << 30, 1u << 10, 0);
    EXPECT_TRUE(decision.admitted);
    EXPECT_EQ(decision.costNs, 0u);
}

TEST(Admission, EwmaConvergesOntoObservedServiceRate)
{
    AdmissionController admission(openConfig());
    // Seed for SweepKernel is 0.5 ns/ref-leg; feed a consistent
    // 10 ns/ref-leg and the estimate must close most of the gap.
    const std::uint64_t refs = 1000, legs = 36;
    const std::uint64_t elapsed = 10 * refs * legs;
    for (int i = 0; i < 20; ++i)
        admission.recordServiced(WorkKind::SweepKernel, refs, legs,
                                 elapsed);
    const std::uint64_t estimate =
        admission.estimateCostNs(WorkKind::SweepKernel, refs, legs);
    EXPECT_GT(estimate, 9 * refs * legs);
    EXPECT_LE(estimate, 10 * refs * legs);
}

TEST(Admission, EwmaStreamsArePerWorkKind)
{
    AdmissionController admission(openConfig());
    admission.recordServiced(WorkKind::Replay, 1000, 1, 1'000'000);
    // Feeding Replay must not move the sweep estimates off their seeds.
    EXPECT_EQ(admission.estimateCostNs(WorkKind::SweepKernel, 100, 36),
              100u * 36u / 2); // seed 0.5
    EXPECT_EQ(admission.estimateCostNs(WorkKind::SweepPerLeg, 100, 36),
              2u * 100u * 36u); // seed 2.0
}

TEST(Admission, EngineBytesZeroAndTwoShareTheKernelCostModel)
{
    // DXP1 engine byte 0 names the retired batched engine, which the
    // kernel now serves: it must be priced by the kernel's EWMA, not a
    // stale estimate of its own.
    EXPECT_EQ(sweepWorkKind(0), WorkKind::SweepKernel);
    EXPECT_EQ(sweepWorkKind(2), WorkKind::SweepKernel);
    EXPECT_EQ(sweepWorkKind(1), WorkKind::SweepPerLeg);

    AdmissionController admission(openConfig());
    const std::uint64_t refs = 1000, legs = 24;
    for (int i = 0; i < 20; ++i)
        admission.recordServiced(sweepWorkKind(0), refs, legs,
                                 10 * refs * legs);
    EXPECT_GT(admission.estimateCostNs(sweepWorkKind(2), refs, legs),
              9 * refs * legs)
        << "engine-0 service times must train the engine-2 estimate";
    EXPECT_EQ(admission.estimateCostNs(sweepWorkKind(1), refs, legs),
              2 * refs * legs)
        << "the per-leg estimate stays on its seed";
}

TEST(Admission, BudgetShedsCarryAClampedHintAndAReason)
{
    AdmissionConfig config = openConfig();
    config.costBudgetNs = 10 * kMs;
    AdmissionController admission(config);

    // First request (5ms at the 0.5 seed) fits.
    const AdmissionDecision first = admission.admit(
        "a", WorkKind::SweepKernel, 10'000'000, 1, 0);
    ASSERT_TRUE(first.admitted);
    EXPECT_EQ(admission.outstandingNs(), first.costNs);

    // Second would push 5+8 > 10: shed with reason and a hint no
    // smaller than the configured floor.
    const AdmissionDecision shed = admission.admit(
        "a", WorkKind::SweepKernel, 16'000'000, 1, 0);
    ASSERT_FALSE(shed.admitted);
    EXPECT_STREQ(shed.reason, "budget");
    EXPECT_GE(shed.retryAfterMs, config.minRetryAfterMs);
    EXPECT_LE(shed.retryAfterMs, config.maxRetryAfterMs);

    // A shed charges nothing.
    EXPECT_EQ(admission.outstandingNs(), first.costNs);
    const AdmissionController::Counters counters = admission.counters();
    EXPECT_EQ(counters.admitted, 1u);
    EXPECT_EQ(counters.shed, 1u);
    EXPECT_GE(counters.retryAfterMsTotal, config.minRetryAfterMs);
}

TEST(Admission, HintGrowsWithTheBacklog)
{
    AdmissionConfig config = openConfig();
    config.costBudgetNs = 10 * kMs;
    config.maxRetryAfterMs = 1u << 30;
    AdmissionController admission(config);

    // 9ms, then 8ms and 80ms more, at the 0.5 seed.
    ASSERT_TRUE(
        admission.admit("a", WorkKind::SweepKernel, 18'000'000, 1, 0)
            .admitted);
    const AdmissionDecision small = admission.admit(
        "a", WorkKind::SweepKernel, 16'000'000, 1, 0);
    const AdmissionDecision large = admission.admit(
        "a", WorkKind::SweepKernel, 160'000'000, 1, 0);
    ASSERT_FALSE(small.admitted);
    ASSERT_FALSE(large.admitted);
    // The farther past the budget, the longer the suggested wait.
    EXPECT_GT(large.retryAfterMs, small.retryAfterMs);
}

TEST(Admission, LoneRequestIsAdmittedEvenWhenOversized)
{
    AdmissionConfig config = openConfig();
    config.costBudgetNs = 1; // absurdly tight
    AdmissionController admission(config);

    // Nothing in flight: even a request dwarfing the budget runs.
    const AdmissionDecision lone = admission.admit(
        "a", WorkKind::SweepPerLeg, 1'000'000'000, 36, 0);
    EXPECT_TRUE(lone.admitted);

    // But with work in flight the same request is shed.
    const AdmissionDecision queued = admission.admit(
        "a", WorkKind::SweepPerLeg, 1'000'000'000, 36, 0);
    EXPECT_FALSE(queued.admitted);

    // Release drains the budget and the lone exception reopens.
    admission.release(lone.costNs);
    EXPECT_EQ(admission.outstandingNs(), 0u);
    EXPECT_TRUE(admission
                    .admit("a", WorkKind::SweepPerLeg, 1'000'000'000,
                           36, 0)
                    .admitted);
}

TEST(Admission, ClientBucketsEnforceFairnessAndRefill)
{
    AdmissionConfig config = openConfig();
    config.clientBurstNs = 10 * kMs;
    config.clientRefillNsPerSec = 1000 * kMs; // 1ms of cost per ms
    AdmissionController admission(config);

    // Client "greedy" drains its burst (two 5ms requests at seed 1.0).
    ASSERT_TRUE(
        admission.admit("greedy", WorkKind::Replay, 2'500'000, 1, 0)
            .admitted); // Replay seed 2.0 -> 5ms
    ASSERT_TRUE(
        admission.admit("greedy", WorkKind::Replay, 2'500'000, 1, 0)
            .admitted);
    const AdmissionDecision shed = admission.admit(
        "greedy", WorkKind::Replay, 2'500'000, 1, 0);
    ASSERT_FALSE(shed.admitted);
    EXPECT_STREQ(shed.reason, "client-rate");
    EXPECT_GE(shed.retryAfterMs, config.minRetryAfterMs);

    // A different client is unaffected by greedy's empty bucket.
    EXPECT_TRUE(
        admission.admit("patient", WorkKind::Replay, 2'500'000, 1, 0)
            .admitted);

    // After 5ms of wall time the bucket holds 5ms of cost again.
    EXPECT_TRUE(
        admission.admit("greedy", WorkKind::Replay, 2'500'000, 1, 5 * kMs)
            .admitted);
}

TEST(Admission, OversizedRequestChargesAtMostOneBurst)
{
    AdmissionConfig config = openConfig();
    config.clientBurstNs = 10 * kMs;
    config.clientRefillNsPerSec = 1000 * kMs;
    AdmissionController admission(config);

    // Estimated cost (2s at seed 0.5) dwarfs the 10ms burst; charging
    // the true cost would starve the client forever. It must admit
    // (full bucket), then refill back to affordable within one burst.
    const AdmissionDecision huge = admission.admit(
        "h", WorkKind::SweepKernel, 4'000'000'000, 1, 0);
    ASSERT_TRUE(huge.admitted);
    admission.release(huge.costNs);

    // Bucket is empty now; the same request at +10ms is affordable
    // again rather than waiting ~2s.
    const AdmissionDecision again = admission.admit(
        "h", WorkKind::SweepKernel, 4'000'000'000, 1, 10 * kMs);
    EXPECT_TRUE(again.admitted);
}

TEST(Admission, BucketTableIsBoundedByLruEviction)
{
    AdmissionConfig config = openConfig();
    config.clientBurstNs = 10 * kMs;
    config.clientRefillNsPerSec = 0; // no refill: drained stays drained
    config.maxClients = 2;
    AdmissionController admission(config);

    // Drain client "old" completely at t=0.
    ASSERT_TRUE(
        admission.admit("old", WorkKind::Replay, 5'000'000, 1, 0)
            .admitted);
    ASSERT_FALSE(
        admission.admit("old", WorkKind::Replay, 5'000'000, 1, 1)
            .admitted);

    // Two fresh clients push "old" (least recently refilled) out.
    ASSERT_TRUE(
        admission.admit("b", WorkKind::Replay, 1'000, 1, 2).admitted);
    ASSERT_TRUE(
        admission.admit("c", WorkKind::Replay, 1'000, 1, 3).admitted);

    // "old" returns with a fresh (full) bucket: the bound trades exact
    // fairness history for O(maxClients) memory.
    EXPECT_TRUE(
        admission.admit("old", WorkKind::Replay, 5'000'000, 1, 4)
            .admitted);
}

TEST(Admission, QueueHintScalesWithOutstandingWork)
{
    AdmissionConfig config = openConfig();
    AdmissionController admission(config);
    EXPECT_EQ(admission.queueRetryAfterMs(), config.minRetryAfterMs);

    // 100ms at the 0.5 seed.
    const AdmissionDecision big = admission.admit(
        "a", WorkKind::SweepKernel, 200 * kMs, 1, 0);
    ASSERT_TRUE(big.admitted);
    EXPECT_GE(admission.queueRetryAfterMs(), 100u);
    EXPECT_LE(admission.queueRetryAfterMs(), config.maxRetryAfterMs);
}

TEST(Admission, ReleaseNeverUnderflows)
{
    AdmissionController admission(openConfig());
    admission.release(12345); // releasing more than outstanding
    EXPECT_EQ(admission.outstandingNs(), 0u);
}

} // namespace
} // namespace dynex::server

/**
 * @file
 * Equivalence tests of the SoA replay kernel: every statistic and FSM
 * event count must be EXPECT_EQ-exact against the per-leg object
 * models: a seeded randomized differential against runTriad over
 * geometries, DE knobs and adversarial traces, plus worker counts,
 * checked/unchecked paths, sparse block ranges, both dispatch ISAs,
 * and the `batched` name, which now selects the kernel.
 */

#include <gtest/gtest.h>

#include <algorithm>

#include "sim/kernel.h"
#include "sim/sweep.h"
#include "util/rng.h"
#include "util/thread_pool.h"
#include "../test_helpers.h"

namespace dynex
{
namespace
{

using test::repeat;

/** Restores the automatic thread configuration when a test exits. */
struct ThreadCountGuard
{
    ~ThreadCountGuard() { ThreadPool::setConfiguredWorkers(0); }
};

/** Restores the kernel's natural ISA dispatch when a test exits. */
struct ScalarGuard
{
    ~ScalarGuard() { setKernelForceScalar(false); }
};

void
expectStatsEq(const CacheStats &kernel, const CacheStats &reference,
              const std::string &label)
{
    EXPECT_EQ(kernel.accesses, reference.accesses) << label;
    EXPECT_EQ(kernel.hits, reference.hits) << label;
    EXPECT_EQ(kernel.misses, reference.misses) << label;
    EXPECT_EQ(kernel.coldMisses, reference.coldMisses) << label;
    EXPECT_EQ(kernel.fills, reference.fills) << label;
    EXPECT_EQ(kernel.bypasses, reference.bypasses) << label;
    EXPECT_EQ(kernel.evictions, reference.evictions) << label;
}

void
expectTriadEq(const TriadResult &kernel, const TriadResult &reference,
              const std::string &label)
{
    expectStatsEq(kernel.dm, reference.dm, "dm " + label);
    expectStatsEq(kernel.de, reference.de, "de " + label);
    expectStatsEq(kernel.opt, reference.opt, "opt " + label);
    for (std::size_t e = 0; e < 5; ++e)
        EXPECT_EQ(kernel.deEvents.byEvent[e],
                  reference.deEvents.byEvent[e])
            << label << " event " << e;
}

/** The kernel's triads for @p trace, packed here; throws on a failed
 * leg. */
std::vector<TriadResult>
kernelTriads(const Trace &trace, const NextUseIndex &index,
             const std::vector<std::uint64_t> &sizes,
             std::uint32_t line,
             const DynamicExclusionConfig &config = {})
{
    return triadsOrThrow(replayTriadKernel(
        PackedTraceView(trace, line), index, sizes, line, config,
        trace.name()));
}

/** A conflict-heavy loopy trace with a pseudo-random data sprinkle. */
Trace
kernelTrace(std::size_t refs, std::uint64_t seed = 0x8a7c3)
{
    Rng rng(seed);
    Trace trace("kernel");
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

// The differential's traces are the adversarial ones for a
// direct-mapped cache: the paper's Section 3 conflict patterns laid out
// one cache size apart, arrays whose strides alias at exactly the cache
// size, and loop nests with a data sprinkle.
constexpr std::uint64_t kDiffSeed = 0x1992;
constexpr int kDiffCases = 400;

/** The paper's Section 3 patterns: conflict between loops, between a
 * loop and a called routine, and within one loop. */
const std::vector<std::string> &
paperPatterns()
{
    static const std::vector<std::string> patterns = {
        repeat(repeat("a", 10) + repeat("b", 10), 10),
        repeat(repeat("a", 10) + "b", 10),
        repeat("ab", 10),
    };
    return patterns;
}

/** Section 3 patterns plus random three-letter ones, every letter one
 * @p alias_bytes apart so all letters share one set. */
void
appendPatterns(Trace &trace, Rng &rng, Addr alias_bytes)
{
    const Addr base = 0x10000 + 4 * rng.nextBelow(256);
    for (const std::string &pattern : paperPatterns())
        trace.append(Trace::fromPattern(pattern, base, alias_bytes));
    std::string random;
    for (int i = 0; i < 200; ++i)
        random += repeat(std::string(1, static_cast<char>(
                             'a' + rng.nextBelow(3))),
                         1 + static_cast<int>(rng.nextBelow(6)));
    trace.append(Trace::fromPattern(random, base, alias_bytes));
}

/** Up to four arrays exactly @p alias_bytes apart walked in lockstep,
 * so element j of every array maps to the same set. */
void
appendAliasingStrides(Trace &trace, Rng &rng, Addr alias_bytes,
                      std::uint32_t line)
{
    const Addr base = 0x200000;
    const Addr arrays = 2 + rng.nextBelow(3);
    const Addr elements = 8 + rng.nextBelow(56);
    const Addr step = line / (1 + rng.nextBelow(2));
    for (int rep = 0; rep < 20; ++rep)
        for (Addr j = 0; j < elements; ++j)
            for (Addr k = 0; k < arrays; ++k)
                trace.append(load(base + k * alias_bytes + j * step));
}

/** Loop bodies at random code addresses with a data reference after
 * each iteration. */
void
appendLoopNest(Trace &trace, Rng &rng, std::size_t refs)
{
    const std::size_t end = trace.size() + refs;
    while (trace.size() < end) {
        const Addr body_base = 0x1000 + 4 * rng.nextBelow(32768);
        const Addr body = 2 + rng.nextBelow(40);
        const Addr iterations = 1 + rng.nextBelow(8);
        for (Addr it = 0; it < iterations; ++it)
            for (Addr j = 0; j < body; ++j)
                trace.append(ifetch(body_base + 4 * j));
        trace.append(load(0x90000 + 8 * rng.nextBelow(4096)));
    }
}

TEST(KernelDifferential, MatchesTheObjectModelsOnAdversarialTraces)
{
    // Random geometries (1KB..128KB, 4-32 B lines) and DE knobs
    // (stickyMax 1-3, useLastLine, initialHitLast), every leg against
    // runTriad.
    Rng rng(kDiffSeed);
    const std::vector<std::uint32_t> lines = {4, 8, 16, 32};
    for (int c = 0; c < kDiffCases; ++c) {
        const std::uint32_t line = lines[rng.nextBelow(lines.size())];
        DynamicExclusionConfig config;
        config.stickyMax = static_cast<std::uint8_t>(1 + rng.nextBelow(3));
        config.useLastLine = rng.nextBelow(2) != 0;
        config.initialHitLast = rng.nextBelow(2) != 0;

        // One to three distinct sizes from the paper's 1KB..128KB axis.
        std::vector<std::uint64_t> sizes;
        const std::size_t want = 1 + rng.nextBelow(3);
        while (sizes.size() < want) {
            const std::uint64_t size = std::uint64_t{1024}
                                       << rng.nextBelow(8);
            if (std::find(sizes.begin(), sizes.end(), size) ==
                sizes.end())
                sizes.push_back(size);
        }
        std::sort(sizes.begin(), sizes.end());
        const Addr alias = sizes[rng.nextBelow(sizes.size())];

        Trace trace("diff" + std::to_string(c));
        appendPatterns(trace, rng, alias);
        appendAliasingStrides(trace, rng, alias, line);
        appendLoopNest(trace, rng, 4000 + rng.nextBelow(12000));
        appendPatterns(trace, rng, alias);

        const NextUseIndex index(trace, line, NextUseMode::RunStart);
        const TriadBatchOutcome kernel = replayTriadKernel(
            PackedTraceView(trace, line), index, sizes, line, config,
            trace.name());
        ASSERT_TRUE(kernel.allOk());
        for (std::size_t s = 0; s < sizes.size(); ++s) {
            const std::string label =
                "case " + std::to_string(c) + ": " +
                std::to_string(sizes[s]) + "B/" + std::to_string(line) +
                "B sticky " + std::to_string(config.stickyMax) +
                " lastline " + std::to_string(config.useLastLine) +
                " hitlast0 " + std::to_string(config.initialHitLast) +
                " alias " + std::to_string(alias);
            expectTriadEq(kernel.triads[s],
                          runTriad(trace, index, sizes[s], line, config),
                          label);
        }
    }
}

TEST(KernelDifferential, SparseAddressesMatchTheObjectModels)
{
    // Section 3 patterns and loop nests laid out in 2MB regions whose
    // blocks sit at or above 2^40, up to the very top of the address
    // space, so every trace spans a block range no flat per-block table
    // could cover; random geometries and DE knobs, every leg against
    // runTriad.
    Rng rng(kDiffSeed + 40);
    const std::vector<std::uint32_t> lines = {4, 8, 16, 32};
    constexpr Addr kRegion = Addr{1} << 21;
    for (int c = 0; c < 60; ++c) {
        const std::uint32_t line = lines[rng.nextBelow(lines.size())];
        DynamicExclusionConfig config;
        config.stickyMax = static_cast<std::uint8_t>(1 + rng.nextBelow(3));
        config.useLastLine = rng.nextBelow(2) != 0;
        config.initialHitLast = rng.nextBelow(2) != 0;
        std::vector<std::uint64_t> sizes = {std::uint64_t{1024}
                                            << rng.nextBelow(4)};
        sizes.push_back(sizes[0] << (1 + rng.nextBelow(4)));
        const Addr alias = sizes[rng.nextBelow(sizes.size())];

        // Byte addresses of 2^46 and up keep every block at or above
        // 2^40 at 32-byte lines.
        const Addr regions[] = {
            Addr{1} << 46,
            (1 + rng.nextBelow(Addr{1} << 16)) << 46,
            (Addr{1} << 63) + rng.nextBelow(Addr{1} << 40) * kRegion,
            ~Addr{0} - kRegion + 1,
        };
        Trace trace("sparse" + std::to_string(c));
        while (trace.size() < 6000) {
            const Addr region = regions[rng.nextBelow(4)];
            const Addr base = region + 4 * rng.nextBelow(kRegion / 16);
            if (rng.nextBelow(2) != 0) {
                const auto &patterns = paperPatterns();
                trace.append(Trace::fromPattern(
                    patterns[rng.nextBelow(patterns.size())], base,
                    alias));
            } else {
                const Addr body = 2 + rng.nextBelow(40);
                const Addr iterations = 1 + rng.nextBelow(8);
                for (Addr it = 0; it < iterations; ++it)
                    for (Addr j = 0; j < body; ++j)
                        trace.append(ifetch(base + 4 * j));
                trace.append(load(region + 8 * rng.nextBelow(4096)));
            }
        }

        const NextUseIndex index(trace, line, NextUseMode::RunStart);
        const TriadBatchOutcome kernel = replayTriadKernel(
            PackedTraceView(trace, line), index, sizes, line, config,
            trace.name());
        ASSERT_TRUE(kernel.allOk());
        for (std::size_t s = 0; s < sizes.size(); ++s)
            expectTriadEq(
                kernel.triads[s],
                runTriad(trace, index, sizes[s], line, config),
                "sparse case " + std::to_string(c) + ": " +
                    std::to_string(sizes[s]) + "B/" +
                    std::to_string(line) + "B sticky " +
                    std::to_string(config.stickyMax) + " lastline " +
                    std::to_string(config.useLastLine) + " hitlast0 " +
                    std::to_string(config.initialHitLast));
    }
}

TEST(KernelDifferential, SentinelBlockMatchesTheObjectModels)
{
    // At 1-byte lines the top byte address is block 2^64-1, the value
    // a 64-bit tag lane would use for an empty line. It leads the
    // trace, repeats in runs, and conflicts with kAddrInvalid - 0x400
    // at 1KB, while 0x10 and 0x410 conflict with each other.
    Trace trace("sentinel");
    for (int r = 0; r < 4; ++r)
        for (const Addr addr :
             {kAddrInvalid, kAddrInvalid, Addr{0x10}, Addr{0x410},
              Addr{0x10}, kAddrInvalid - 0x400, kAddrInvalid,
              Addr{0x410}, Addr{0x410}, Addr{0x10}})
            trace.append(load(addr, 1));
    const std::uint32_t line = 1;
    const std::vector<std::uint64_t> sizes = {256, 1024, 4096};
    const NextUseIndex index(trace, line, NextUseMode::RunStart);
    for (std::uint8_t sticky = 1; sticky <= 3; ++sticky) {
        for (const bool last_line : {false, true}) {
            for (const bool hit_last : {false, true}) {
                DynamicExclusionConfig config;
                config.stickyMax = sticky;
                config.useLastLine = last_line;
                config.initialHitLast = hit_last;
                const TriadBatchOutcome kernel = replayTriadKernel(
                    PackedTraceView(trace, line), index, sizes, line,
                    config, trace.name());
                ASSERT_TRUE(kernel.allOk());
                for (std::size_t s = 0; s < sizes.size(); ++s)
                    expectTriadEq(
                        kernel.triads[s],
                        runTriad(trace, index, sizes[s], line, config),
                        std::to_string(sizes[s]) + "B sticky " +
                            std::to_string(sticky) + " lastline " +
                            std::to_string(last_line) + " hitlast0 " +
                            std::to_string(hit_last));
            }
        }
    }
}

/** The kernel's triad batch for @p trace against runTriad, leg by
 * leg, and the sweep the `batched` name selects against the per-leg
 * sweep. */
void
expectBatchMatchesPerLeg(const Trace &trace,
                         const std::vector<std::uint64_t> &sizes,
                         std::uint32_t line,
                         const DynamicExclusionConfig &config,
                         const std::string &label)
{
    const NextUseIndex index(trace, line, NextUseMode::RunStart);
    const auto kernel = kernelTriads(trace, index, sizes, line, config);
    ASSERT_EQ(kernel.size(), sizes.size());
    for (std::size_t s = 0; s < sizes.size(); ++s)
        expectTriadEq(kernel[s],
                      runTriad(trace, index, sizes[s], line, config),
                      label + " size " + std::to_string(sizes[s]));

    const auto batched = parseReplayEngine("batched");
    ASSERT_TRUE(batched.has_value());
    const auto points = sweepSizes(trace, sizes, line, config, *batched);
    const auto reference =
        sweepSizes(trace, sizes, line, config, ReplayEngine::PerLeg);
    ASSERT_EQ(points.size(), reference.size());
    for (std::size_t s = 0; s < points.size(); ++s) {
        EXPECT_EQ(points[s].dmMissPct, reference[s].dmMissPct) << label;
        EXPECT_EQ(points[s].deMissPct, reference[s].deMissPct) << label;
        EXPECT_EQ(points[s].optMissPct, reference[s].optMissPct)
            << label;
    }
}

TEST(KernelReplay, MatchesBatchAtEverySizeAndLine)
{
    const Trace trace = kernelTrace(30000);
    const std::vector<std::uint64_t> sizes = {256, 1024, 4096,
                                              16 * 1024};
    for (const std::uint32_t line : {4u, 16u}) {
        DynamicExclusionConfig config;
        config.useLastLine = line > 4;
        expectBatchMatchesPerLeg(trace, sizes, line, config,
                                 "line " + std::to_string(line));
    }
}

TEST(KernelReplay, MatchesBatchWithNonDefaultDeConfig)
{
    const Trace trace = kernelTrace(20000, 0x51c);
    DynamicExclusionConfig config;
    config.stickyMax = 3;
    config.useLastLine = true;
    config.initialHitLast = true;
    expectBatchMatchesPerLeg(trace, {512, 2048}, 8, config, "sticky3");
}

TEST(KernelReplay, SparseBlocksFallBackToTheIdealStore)
{
    // Blocks around 2^40 and above: the kernel's hit-last bytes are
    // indexed by the view's dense ids, so a sparse trace takes the same
    // path as a dense one and must match the object models (whose
    // IdealHitLastStore spills such blocks into its exact map).
    Rng rng(0xfee1);
    Trace trace("sparse");
    for (int i = 0; i < 8000; ++i) {
        const Addr page = rng.nextBelow(8) << 40;
        trace.append(ifetch(page + 4 * rng.nextBelow(64)));
    }
    const std::uint32_t line = 4;
    const NextUseIndex index(trace, line, NextUseMode::RunStart);
    const std::vector<std::uint64_t> sizes = {256, 4096};
    const auto kernel = kernelTriads(trace, index, sizes, line);
    for (std::size_t s = 0; s < sizes.size(); ++s)
        expectTriadEq(kernel[s], runTriad(trace, index, sizes[s], line),
                      "sparse size " + std::to_string(sizes[s]));
}

TEST(KernelReplay, ScalarDispatchIsBitIdenticalToTheNaturalIsa)
{
    ScalarGuard guard;
    const Trace trace = kernelTrace(25000, 0xd15b);
    const std::uint32_t line = 16;
    const NextUseIndex index(trace, line, NextUseMode::RunStart);
    DynamicExclusionConfig config;
    config.useLastLine = true;
    const std::vector<std::uint64_t> sizes = {1024, 8 * 1024};

    setKernelForceScalar(false);
    const KernelIsa natural = kernelDispatchIsa();
    const auto fast = kernelTriads(trace, index, sizes, line, config);

    setKernelForceScalar(true);
    EXPECT_TRUE(kernelForceScalar());
    EXPECT_EQ(kernelDispatchIsa(), KernelIsa::Scalar);
    const auto scalar = kernelTriads(trace, index, sizes, line, config);

    // On AVX2 hardware this compares the two code paths; elsewhere it
    // still proves the forced-scalar path is the dispatched one, so a
    // CI machine without AVX2 exercises the fallback by construction.
    for (std::size_t s = 0; s < sizes.size(); ++s)
        expectTriadEq(scalar[s], fast[s],
                      std::string("isa ") + kernelIsaName(natural) +
                          " size " + std::to_string(sizes[s]));
}

TEST(KernelReplay, SweepSizesKernelIdenticalAcrossWorkerCounts)
{
    ThreadCountGuard guard;
    const Trace trace = kernelTrace(30000);
    const std::vector<std::uint64_t> sizes = {256, 1024, 4096};
    ThreadPool::setConfiguredWorkers(1);
    const auto reference =
        sweepSizes(trace, sizes, 4, {}, ReplayEngine::PerLeg);
    for (const unsigned threads : {1u, 2u, 8u}) {
        ThreadPool::setConfiguredWorkers(threads);
        for (const ReplayEngine engine :
             {ReplayEngine::Kernel, ReplayEngine::PerLeg}) {
            const auto points = sweepSizes(trace, sizes, 4, {}, engine);
            ASSERT_EQ(points.size(), reference.size());
            for (std::size_t s = 0; s < points.size(); ++s) {
                EXPECT_EQ(points[s].dmMissPct, reference[s].dmMissPct)
                    << replayEngineName(engine) << ", " << threads
                    << " workers, point " << s;
                EXPECT_EQ(points[s].deMissPct, reference[s].deMissPct)
                    << replayEngineName(engine) << ", " << threads
                    << " workers, point " << s;
                EXPECT_EQ(points[s].optMissPct,
                          reference[s].optMissPct)
                    << replayEngineName(engine) << ", " << threads
                    << " workers, point " << s;
            }
        }
    }
}

TEST(KernelReplay, SuiteSweepsIdenticalCheckedAndUncheckedAllWorkers)
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
        const auto kernel =
            sweepSuiteAverage(names, 30000, sizes, 4, {}, false, false,
                              ReplayEngine::Kernel);
        const auto checked = sweepSuiteAverageChecked(
            names, 30000, sizes, 4, {}, false, false,
            ReplayEngine::Kernel);
        ASSERT_TRUE(checked.failures.empty());
        ASSERT_EQ(kernel.size(), reference.size());
        for (std::size_t s = 0; s < sizes.size(); ++s) {
            EXPECT_EQ(kernel[s].dmMissPct, reference[s].dmMissPct)
                << threads << " workers, size " << sizes[s];
            EXPECT_EQ(kernel[s].deMissPct, reference[s].deMissPct)
                << threads << " workers, size " << sizes[s];
            EXPECT_EQ(kernel[s].optMissPct, reference[s].optMissPct)
                << threads << " workers, size " << sizes[s];
            EXPECT_EQ(checked.points[s].dmMissPct,
                      reference[s].dmMissPct)
                << "checked, " << threads << " workers";
            EXPECT_EQ(checked.points[s].deMissPct,
                      reference[s].deMissPct)
                << "checked, " << threads << " workers";
            EXPECT_EQ(checked.points[s].optMissPct,
                      reference[s].optMissPct)
                << "checked, " << threads << " workers";
        }
    }
}

TEST(KernelReplay, LineSweepKernelMatchesBatch)
{
    // The kernel, and the retired batched engine's name that now
    // selects it, both match the per-leg line sweep.
    ThreadCountGuard guard;
    const std::vector<std::string> names = {"tomcatv"};
    const auto batched = parseReplayEngine("batched");
    ASSERT_TRUE(batched.has_value());
    ThreadPool::setConfiguredWorkers(1);
    const auto reference =
        sweepSuiteLineSizes(names, 30000, 16 * 1024, {4, 16, 64}, {},
                            ReplayEngine::PerLeg);
    for (const unsigned threads : {1u, 2u, 8u}) {
        ThreadPool::setConfiguredWorkers(threads);
        for (const ReplayEngine engine : {ReplayEngine::Kernel, *batched}) {
            const auto kernel =
                sweepSuiteLineSizes(names, 30000, 16 * 1024, {4, 16, 64},
                                    {}, engine);
            ASSERT_EQ(kernel.size(), reference.size());
            for (std::size_t l = 0; l < kernel.size(); ++l) {
                EXPECT_EQ(kernel[l].lineBytes, reference[l].lineBytes);
                EXPECT_EQ(kernel[l].dmMissPct, reference[l].dmMissPct)
                    << threads << " workers";
                EXPECT_EQ(kernel[l].deMissPct, reference[l].deMissPct)
                    << threads << " workers";
                EXPECT_EQ(kernel[l].optMissPct, reference[l].optMissPct)
                    << threads << " workers";
            }
        }
    }
}

TEST(KernelReplay, CheckedKernelIsolatesInjectedFaults)
{
    const Trace trace = kernelTrace(10000);
    const std::uint32_t line = 4;
    const NextUseIndex index(trace, line, NextUseMode::RunStart);
    const std::vector<std::uint64_t> sizes = {256, 1024, 4096};

    setSweepFaultHook([](const std::string &, std::uint64_t size) {
        if (size == 1024)
            throw StatusError(Status::internal("injected"));
    });
    const auto checked = replayTriadKernel(
        PackedTraceView(trace, line), index, sizes, line, {},
        trace.name());
    EXPECT_THROW(kernelTriads(trace, index, sizes, line), StatusError)
        << "the unchecked form throws the failed leg's status";
    setSweepFaultHook({});

    ASSERT_EQ(checked.failures.size(), 1u);
    EXPECT_EQ(checked.failures[0].sizeIndex, 1u);
    EXPECT_FALSE(checked.ok[1]);
    const auto clean = kernelTriads(trace, index, sizes, line);
    expectTriadEq(checked.triads[0], clean[0], "surviving leg 0");
    expectTriadEq(checked.triads[2], clean[2], "surviving leg 2");
}

TEST(KernelReplay, RejectsSetCountsBeyondThirtyTwoBits)
{
    // 8GB at 1-byte lines is 2^33 sets: more than the view's 32-bit set
    // words can index. The leg fails setup as InvalidArgument, before
    // allocating a lane, and the other leg completes.
    const Trace trace = kernelTrace(2000);
    const std::uint32_t line = 1;
    const NextUseIndex index(trace, line, NextUseMode::RunStart);
    const std::vector<std::uint64_t> sizes = {1024,
                                              std::uint64_t{1} << 33};
    const TriadBatchOutcome outcome = replayTriadKernel(
        PackedTraceView(trace, line), index, sizes, line, {},
        trace.name());
    ASSERT_EQ(outcome.failures.size(), 1u);
    EXPECT_EQ(outcome.failures[0].sizeIndex, 1u);
    EXPECT_EQ(outcome.failures[0].status.code(),
              StatusCode::InvalidArgument);
    EXPECT_TRUE(outcome.ok[0]);
    EXPECT_FALSE(outcome.ok[1]);
    expectTriadEq(outcome.triads[0],
                  runTriad(trace, index, 1024, line), "1KB leg");
}

TEST(KernelReplay, LegIdentityCheckNamesTheBrokenIdentity)
{
    const Trace trace = kernelTrace(5000);
    const NextUseIndex index(trace, 16, NextUseMode::RunStart);
    DynamicExclusionConfig config;
    config.useLastLine = true;
    const TriadResult good = runTriad(trace, index, 1024, 16, config);
    const Count last_line = good.de.hits - good.deEvents.of(FsmEvent::Hit);
    ASSERT_TRUE(checkLegIdentities(good, last_line).ok());

    struct Case
    {
        const char *identity;
        void (*breakIt)(TriadResult &);
    };
    std::vector<Case> cases = {
        {"dm hits + misses = accesses",
         [](TriadResult &r) { ++r.dm.hits; }},
        {"de fills + bypasses = misses",
         [](TriadResult &r) { ++r.de.bypasses; }},
        // Evictions that wrapped below zero still balance the sum
        // modulo 2^64; the check must not be fooled.
        {"opt evictions = fills - cold",
         [](TriadResult &r) {
             r.opt.coldMisses = r.opt.fills + 2;
             r.opt.evictions = r.opt.fills - r.opt.coldMisses;
         }},
        {"cold misses equal across dm, de and opt",
         [](TriadResult &r) {
             ++r.dm.coldMisses;
             --r.dm.evictions;
         }},
    };
    if constexpr (FsmEventCounts::enabled)
        cases.push_back({"de Figure-1 arcs = accesses - last-line hits",
                         [](TriadResult &r) { ++r.deEvents.byEvent[4]; }});
    for (const Case &c : cases) {
        TriadResult broken = good;
        c.breakIt(broken);
        const Status status = checkLegIdentities(broken, last_line);
        EXPECT_EQ(status.code(), StatusCode::Internal) << c.identity;
        EXPECT_NE(status.message().find(c.identity), std::string::npos)
            << status.message();
    }
}

TEST(KernelReplay, EmptyTraceYieldsZeroedStats)
{
    Trace trace("empty");
    const NextUseIndex index(trace, 4, NextUseMode::RunStart);
    const auto triads = kernelTriads(trace, index, {256, 1024}, 4);
    ASSERT_EQ(triads.size(), 2u);
    for (const auto &triad : triads) {
        EXPECT_EQ(triad.dm.accesses, 0u);
        EXPECT_EQ(triad.de.accesses, 0u);
        EXPECT_EQ(triad.opt.accesses, 0u);
    }
}

TEST(KernelReplay, IsaNamesAreStable)
{
    EXPECT_STREQ(kernelIsaName(KernelIsa::Scalar), "scalar");
    EXPECT_STREQ(kernelIsaName(KernelIsa::Avx2), "avx2");
}

} // namespace
} // namespace dynex

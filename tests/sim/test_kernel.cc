/**
 * @file
 * Equivalence tests of the SoA replay kernel: every statistic and FSM
 * event count must be EXPECT_EQ-exact against the per-leg object
 * models: a seeded randomized differential against runTriad over
 * geometries, DE knobs and adversarial traces, plus worker counts,
 * fault isolation, sparse block ranges, both dispatch ISAs, and the
 * `batched` name (CLI `--replay batched`, campaign `engine batched`,
 * DXP1 engine byte 0), which now selects the kernel.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <map>

#include "obs/metrics.h"
#include "sim/kernel.h"
#include "sim/sweep.h"
#include "util/bitops.h"
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

/** The kernel's triads over @p artifact; throws on a failed leg. */
std::vector<TriadResult>
kernelTriads(const ReplayArtifact &artifact,
             const std::vector<std::uint64_t> &sizes,
             const DynamicExclusionConfig &config = {})
{
    TriadBatchOutcome outcome =
        replayTriadKernel(artifact, sizes, config, "kernel");
    throwIfFailed(outcome.failures);
    return std::move(outcome.triads);
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

        const auto artifact = buildReplayArtifact(trace, line, "diff");
        const NextUseIndex &index = artifact->index();
        const TriadBatchOutcome kernel =
            replayTriadKernel(*artifact, sizes, config, trace.name());
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

        const auto artifact = buildReplayArtifact(trace, line, "sparse");
        const NextUseIndex &index = artifact->index();
        const TriadBatchOutcome kernel =
            replayTriadKernel(*artifact, sizes, config, trace.name());
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
    const auto artifact = buildReplayArtifact(trace, line, "sentinel");
    const NextUseIndex &index = artifact->index();
    for (std::uint8_t sticky = 1; sticky <= 3; ++sticky) {
        for (const bool last_line : {false, true}) {
            for (const bool hit_last : {false, true}) {
                DynamicExclusionConfig config;
                config.stickyMax = sticky;
                config.useLastLine = last_line;
                config.initialHitLast = hit_last;
                const TriadBatchOutcome kernel = replayTriadKernel(
                    *artifact, sizes, config, trace.name());
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
    const auto artifact = buildReplayArtifact(trace, line, label);
    const NextUseIndex &index = artifact->index();
    const auto kernel = kernelTriads(*artifact, sizes, config);
    ASSERT_EQ(kernel.size(), sizes.size());
    for (std::size_t s = 0; s < sizes.size(); ++s)
        expectTriadEq(kernel[s],
                      runTriad(trace, index, sizes[s], line, config),
                      label + " size " + std::to_string(sizes[s]));

    const auto batched =
        sweepSizes(trace, sizes, line, config, batchedAlias());
    const auto per_leg =
        sweepSizes(trace, sizes, line, config, ReplayEngine::PerLeg);
    ASSERT_TRUE(batched.allOk()) << label;
    ASSERT_TRUE(per_leg.allOk()) << label;
    const auto &points = batched.points;
    const auto &reference = per_leg.points;
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
    const auto artifact = buildReplayArtifact(trace, line, "sparse");
    const std::vector<std::uint64_t> sizes = {256, 4096};
    const auto kernel = kernelTriads(*artifact, sizes);
    for (std::size_t s = 0; s < sizes.size(); ++s)
        expectTriadEq(kernel[s],
                      runTriad(trace, artifact->index(), sizes[s], line),
                      "sparse size " + std::to_string(sizes[s]));
}

TEST(KernelReplay, ScalarDispatchIsBitIdenticalToTheNaturalIsa)
{
    ScalarGuard guard;
    const Trace trace = kernelTrace(25000, 0xd15b);
    const auto artifact = buildReplayArtifact(trace, 16, "dispatch");
    DynamicExclusionConfig config;
    config.useLastLine = true;
    const std::vector<std::uint64_t> sizes = {1024, 8 * 1024};

    setKernelForceScalar(false);
    const KernelIsa natural = kernelDispatchIsa();
    const auto fast = kernelTriads(*artifact, sizes, config);

    setKernelForceScalar(true);
    EXPECT_EQ(kernelDispatchIsa(), KernelIsa::Scalar);
    const auto scalar = kernelTriads(*artifact, sizes, config);

    // On AVX2 hardware this compares the two code paths; elsewhere it
    // still proves the forced-scalar path is the dispatched one, so a
    // CI machine without AVX2 exercises the fallback by construction.
    for (std::size_t s = 0; s < sizes.size(); ++s)
        expectTriadEq(scalar[s], fast[s],
                      std::string("isa ") +
                          (natural == KernelIsa::Avx2 ? "avx2" : "scalar") +
                          " size " + std::to_string(sizes[s]));
}

TEST(KernelReplay, SweepSizesKernelIdenticalAcrossWorkerCounts)
{
    ThreadCountGuard guard;
    const Trace trace = kernelTrace(30000);
    const std::vector<std::uint64_t> sizes = {256, 1024, 4096};
    ThreadPool::setConfiguredWorkers(1);
    const auto per_leg =
        sweepSizes(trace, sizes, 4, {}, ReplayEngine::PerLeg);
    ASSERT_TRUE(per_leg.allOk());
    const auto &reference = per_leg.points;
    for (const unsigned threads : {1u, 2u, 8u}) {
        ThreadPool::setConfiguredWorkers(threads);
        for (const ReplayEngine engine :
             {ReplayEngine::Kernel, batchedAlias(), ReplayEngine::PerLeg}) {
            const auto swept = sweepSizes(trace, sizes, 4, {}, engine);
            ASSERT_TRUE(swept.allOk())
                << replayEngineName(engine) << ", " << threads
                << " workers";
            const auto &points = swept.points;
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
    // The suite average under the kernel and the `batched` alias
    // reports no failed leg and matches the per-leg engine exactly.
    ThreadCountGuard guard;
    const std::vector<std::string> names = {"mat300", "tomcatv"};
    const std::vector<std::uint64_t> sizes = {1024, 8 * 1024,
                                              32 * 1024};
    ThreadPool::setConfiguredWorkers(1);
    const auto reference =
        sweepSuiteAverage(names, 30000, sizes, 4, {},
                          StreamKind::Instructions, ReplayEngine::PerLeg);
    ASSERT_TRUE(reference.allOk());
    for (const unsigned threads : {1u, 2u, 8u}) {
        ThreadPool::setConfiguredWorkers(threads);
        for (const ReplayEngine engine :
             {ReplayEngine::Kernel, batchedAlias()}) {
            const auto kernel =
                sweepSuiteAverage(names, 30000, sizes, 4, {},
                                  StreamKind::Instructions, engine);
            ASSERT_TRUE(kernel.allOk());
            ASSERT_EQ(kernel.points.size(), reference.points.size());
            for (std::size_t s = 0; s < sizes.size(); ++s) {
                EXPECT_EQ(kernel.points[s].dmMissPct,
                          reference.points[s].dmMissPct)
                    << threads << " workers, size " << sizes[s];
                EXPECT_EQ(kernel.points[s].deMissPct,
                          reference.points[s].deMissPct)
                    << threads << " workers, size " << sizes[s];
                EXPECT_EQ(kernel.points[s].optMissPct,
                          reference.points[s].optMissPct)
                    << threads << " workers, size " << sizes[s];
            }
        }
    }
}

TEST(KernelReplay, LineSweepKernelMatchesBatch)
{
    // The kernel, and the retired batched engine's name that now
    // selects it, both match the per-leg line sweep.
    ThreadCountGuard guard;
    const std::vector<std::string> names = {"tomcatv"};
    ThreadPool::setConfiguredWorkers(1);
    const auto reference =
        sweepSuiteLineSizes(names, 30000, 16 * 1024, {4, 16, 64}, {},
                            ReplayEngine::PerLeg);
    for (const unsigned threads : {1u, 2u, 8u}) {
        ThreadPool::setConfiguredWorkers(threads);
        for (const ReplayEngine engine :
             {ReplayEngine::Kernel, batchedAlias()}) {
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
    const auto artifact = buildReplayArtifact(trace, 4, "faults");
    const std::vector<std::uint64_t> sizes = {256, 1024, 4096};

    setSweepFaultHook([](const std::string &, std::uint64_t size) {
        if (size == 1024)
            throw StatusError(Status::internal("injected"));
    });
    const auto checked =
        replayTriadKernel(*artifact, sizes, {}, trace.name());
    EXPECT_THROW(kernelTriads(*artifact, sizes), StatusError)
        << "throwIfFailed throws the failed leg's status";
    setSweepFaultHook({});

    ASSERT_EQ(checked.failures.size(), 1u);
    EXPECT_EQ(checked.failures[0].bench, trace.name());
    EXPECT_EQ(checked.failures[0].sizeBytes, 1024u);
    EXPECT_EQ(checked.failures[0].model, "triad");
    EXPECT_FALSE(checked.ok[1]);
    const auto clean = kernelTriads(*artifact, sizes);
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
    const auto artifact = buildReplayArtifact(trace, line, "wide");
    const std::vector<std::uint64_t> sizes = {1024,
                                              std::uint64_t{1} << 33};
    const TriadBatchOutcome outcome =
        replayTriadKernel(*artifact, sizes, {}, trace.name());
    ASSERT_EQ(outcome.failures.size(), 1u);
    EXPECT_EQ(outcome.failures[0].sizeBytes, sizes[1]);
    EXPECT_EQ(outcome.failures[0].status.code(),
              StatusCode::InvalidArgument);
    EXPECT_TRUE(outcome.ok[0]);
    EXPECT_FALSE(outcome.ok[1]);
    expectTriadEq(outcome.triads[0],
                  runTriad(trace, artifact->index(), 1024, line),
                  "1KB leg");
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
    const std::vector<Case> cases = {
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
        {"de Figure-1 arcs = accesses - last-line hits",
         [](TriadResult &r) { ++r.deEvents.byEvent[4]; }},
    };
    for (const Case &c : cases) {
        TriadResult broken = good;
        c.breakIt(broken);
        const Status status = checkLegIdentities(broken, last_line);
        EXPECT_EQ(status.code(), StatusCode::Internal) << c.identity;
        EXPECT_NE(status.message().find(c.identity), std::string::npos)
            << status.message();
    }
}

// Closed-form references: the kernel replays a block alone in its set
// (SetSharing) and, with the last-line register, a within-run reference
// without a lane. These traces put that skip under the per-leg oracle.

/** The set-word bits block @p a shares with block @p b. */
unsigned
sharedBits(std::uint32_t a, std::uint32_t b)
{
    return static_cast<unsigned>(std::countr_zero(a ^ b));
}

/** Brute force: at every k, each block's private flag from a per-set
 * count of distinct blocks, and the private tallies from the ids. */
void
expectSharingMatchesBruteForce(const PackedTraceView &view,
                               const std::string &label)
{
    const SetSharing sharing(view);
    const std::uint32_t *words = view.blockSetWords();
    const std::size_t blocks = view.distinctBlocks();
    ASSERT_GE(blocks, 2u) << label;
    for (std::size_t id = 0; id < blocks; ++id) {
        unsigned most = 0;
        for (std::size_t other = 0; other < blocks; ++other)
            if (other != id)
                most = std::max(most, sharedBits(words[id], words[other]));
        ASSERT_EQ(sharing.sharedLowBits()[id], most)
            << label << " id " << id;
    }
    for (std::size_t pad = 0; pad < 3; ++pad)
        EXPECT_EQ(sharing.sharedLowBits()[blocks + pad], 0) << label;

    for (unsigned k = 0; k <= 32; ++k) {
        const std::uint64_t mask = (std::uint64_t{1} << k) - 1;
        std::map<std::uint64_t, Count> per_set;
        for (std::size_t id = 0; id < blocks; ++id)
            ++per_set[words[id] & mask];
        std::vector<std::uint8_t> alone(blocks);
        SetSharing::Tally want;
        for (std::size_t id = 0; id < blocks; ++id) {
            alone[id] = per_set[words[id] & mask] == 1;
            EXPECT_EQ(alone[id] != 0, k > sharing.sharedLowBits()[id])
                << label << " id " << id << " k " << k;
            want.blocks += alone[id];
        }
        for (std::size_t i = 0; i < view.size(); ++i) {
            const std::uint32_t id = view.ids()[i];
            want.refs += alone[id];
            want.runStarts += alone[id] && (i == 0 || view.ids()[i - 1] != id);
        }
        const SetSharing::Tally &got = sharing.privateAt(k);
        EXPECT_EQ(got.blocks, want.blocks) << label << " k " << k;
        EXPECT_EQ(got.refs, want.refs) << label << " k " << k;
        EXPECT_EQ(got.runStarts, want.runStarts) << label << " k " << k;
    }
    Count starts = 0;
    for (std::size_t i = 0; i < view.size(); ++i)
        starts += i == 0 || view.ids()[i - 1] != view.ids()[i];
    EXPECT_EQ(sharing.runStarts(), starts) << label;
}

TEST(ClosedForm, SharedLowBitsMatchABruteForceSetCount)
{
    Rng rng(0x5e7);
    for (int c = 0; c < 40; ++c) {
        Trace trace("sharing" + std::to_string(c));
        const std::uint32_t line = 1u << rng.nextBelow(6);
        const std::size_t blocks = 2 + rng.nextBelow(200);
        std::vector<Addr> addrs;
        for (std::size_t b = 0; b < blocks; ++b) {
            // Dense code, sparse data, and a block 2^32 blocks above
            // another (equal in every set-word bit).
            const Addr pick = rng.nextBelow(3);
            const Addr block =
                pick == 0   ? 0x400 + rng.nextBelow(512)
                : pick == 1 ? rng.nextBelow(Addr{1} << 40)
                : addrs.empty()
                    ? 7
                    : addrs[rng.nextBelow(addrs.size())] / line +
                          (Addr{1} << 32);
            addrs.push_back(block * line);
        }
        for (int r = 0; r < 600; ++r) {
            const Addr addr = addrs[rng.nextBelow(addrs.size())];
            const int run = 1 + static_cast<int>(rng.nextBelow(4));
            for (int j = 0; j < run; ++j)
                trace.append(load(addr, 1));
        }
        const PackedTraceView view(trace, line);
        if (view.distinctBlocks() < 2)
            continue;
        expectSharingMatchesBruteForce(view, trace.name());
    }
}

TEST(ClosedForm, BlocksEqualInAllLowSetBitsAreNeverPrivate)
{
    // Blocks 5 and 5 + 2^32 agree in all 32 set-word bits: no set count
    // a view can index separates them. Block 6 is alone from 2 sets on.
    Trace trace("twins");
    for (int r = 0; r < 50; ++r)
        for (const Addr block : {Addr{5}, (Addr{1} << 32) + 5, Addr{6}})
            trace.append(load(block * 4));
    const PackedTraceView view(trace, 4);
    expectSharingMatchesBruteForce(view, "twins");
    const SetSharing sharing(view);
    EXPECT_EQ(sharing.sharedLowBits()[0], 32);
    EXPECT_EQ(sharing.sharedLowBits()[1], 32);
    EXPECT_EQ(sharing.sharedLowBits()[2], 0);
    EXPECT_EQ(sharing.privateAt(32).blocks, 1u);
    EXPECT_EQ(sharing.privateAt(32).refs, 50u);

    for (const bool last_line : {false, true}) {
        DynamicExclusionConfig config;
        config.useLastLine = last_line;
        expectBatchMatchesPerLeg(trace, {16, 1024, 64 * 1024}, 4, config,
                                 "twins lastline " +
                                     std::to_string(last_line));
    }
}

/** Pairs of blocks that conflict at every size up to sizes[p] and part
 * at the next one, each pair in its own low bits, replayed as the
 * paper's conflict patterns with runs: at each size index some blocks
 * turn private. */
Trace
privateAtEverySize(const std::vector<std::uint64_t> &sizes,
                   std::uint32_t line)
{
    Trace trace("every-size");
    Rng rng(0xe5e);
    for (int round = 0; round < 3; ++round) {
        for (std::size_t p = 0; p < sizes.size(); ++p) {
            const Addr a = 0x100000 + Addr{line} * (2 * p + 1);
            const Addr b = a + sizes[p];
            for (int rep = 0; rep < 30; ++rep) {
                const int run = 1 + static_cast<int>(rng.nextBelow(5));
                for (int j = 0; j < run; ++j)
                    trace.append(load(rng.nextBelow(3) == 0 ? b : a));
            }
        }
    }
    return trace;
}

/** Every block conflicts with one twice the largest size away: no
 * block turns private anywhere on the axis. */
Trace
privateAtNoSize(const std::vector<std::uint64_t> &sizes,
                std::uint32_t line)
{
    Trace trace("no-size");
    Rng rng(0x0);
    const Addr alias = 2 * sizes.back();
    for (int rep = 0; rep < 400; ++rep) {
        const Addr base = 0x200000 + Addr{line} * rng.nextBelow(16);
        const int run = 1 + static_cast<int>(rng.nextBelow(4));
        const Addr addr = base + (rng.nextBelow(2) ? alias : 0);
        for (int j = 0; j < run; ++j)
            trace.append(ifetch(addr));
    }
    return trace;
}

/** A loop of 16 consecutive blocks, well inside the smallest size:
 * every block is private at every size index. */
Trace
privateAtAllSizes(std::uint32_t line)
{
    Trace trace("all-sizes");
    for (int it = 0; it < 60; ++it)
        for (Addr j = 0; j < 16 * line; j += 4)
            trace.append(ifetch(0x3000 + j));
    return trace;
}

/** Runs of one block across the 4096-reference chunk boundaries, one of
 * them longer than a whole chunk, around aliasing conflict traffic. */
Trace
runsAcrossChunks(std::uint32_t line)
{
    Trace trace("chunk-runs");
    Rng rng(0xc4);
    const auto conflicts = [&](std::size_t until) {
        while (trace.size() < until)
            trace.append(load(0x8000 + 1024 * rng.nextBelow(4) +
                              line * rng.nextBelow(3)));
    };
    conflicts(4090);
    for (int j = 0; j < 20; ++j)
        trace.append(load(0x8000));
    conflicts(2 * 4096 - 3);
    for (int j = 0; j < 4096 + 10; ++j)
        trace.append(load(0x8400));
    conflicts(4 * 4096 + 1);
    return trace;
}

/** The closed-form traces under one DE config, on both ISAs. */
void
expectClosedFormMatchesPerLeg(std::uint32_t line,
                              const DynamicExclusionConfig &config)
{
    ScalarGuard guard;
    const std::vector<std::uint64_t> sizes = {1024, 2048, 4096, 8192,
                                              16 * 1024, 32 * 1024};
    const std::string knobs = " line " + std::to_string(line) +
                              " sticky " +
                              std::to_string(config.stickyMax) +
                              " lastline " +
                              std::to_string(config.useLastLine);
    for (const bool scalar : {false, true}) {
        setKernelForceScalar(scalar);
        const std::string isa = scalar ? " scalar" : " natural";
        for (const Trace &trace :
             {privateAtEverySize(sizes, line), privateAtNoSize(sizes, line),
              privateAtAllSizes(line), runsAcrossChunks(line)})
            expectBatchMatchesPerLeg(trace, sizes, line, config,
                                     trace.name() + knobs + isa);
    }
}

TEST(KernelDifferential, ClosedFormMatchesPerLegWithLastLineAtFourBytes)
{
    for (const std::uint8_t sticky : {1, 3}) {
        DynamicExclusionConfig config;
        config.stickyMax = sticky;
        config.useLastLine = true;
        expectClosedFormMatchesPerLeg(4, config);
    }
}

TEST(KernelDifferential, ClosedFormMatchesPerLegWithoutLastLineAtSixteenBytes)
{
    for (const std::uint8_t sticky : {1, 3}) {
        DynamicExclusionConfig config;
        config.stickyMax = sticky;
        config.useLastLine = false;
        expectClosedFormMatchesPerLeg(16, config);
    }
}

TEST(ClosedForm, PrivateAtEverySizeIndexReallyIs)
{
    // The traces above cover what they claim: some blocks turn private
    // at each size index of the axis, none at any, or all at all.
    const std::vector<std::uint64_t> sizes = {1024, 2048, 4096, 8192,
                                              16 * 1024, 32 * 1024};
    const std::uint32_t line = 16;
    const auto privateBlocks = [&](const Trace &trace, std::uint64_t size) {
        const PackedTraceView view(trace, line);
        return SetSharing(view)
            .privateAt(floorLog2(size / line))
            .blocks;
    };
    const Trace every = privateAtEverySize(sizes, line);
    for (std::size_t s = 1; s < sizes.size(); ++s)
        EXPECT_GT(privateBlocks(every, sizes[s]),
                  privateBlocks(every, sizes[s - 1]))
            << sizes[s];
    for (const std::uint64_t size : sizes) {
        EXPECT_EQ(privateBlocks(privateAtNoSize(sizes, line), size), 0u);
        EXPECT_EQ(privateBlocks(privateAtAllSizes(line), size), 16u);
    }
}

TEST(ClosedForm, CountsLegReferencesResolvedWithoutALane)
{
    // Every reference of the all-private loop is closed form at every
    // leg; with the last-line register none of the no-size trace's
    // run starts is, and without it nothing is.
    const std::vector<std::uint64_t> sizes = {1024, 4096};
    const auto closedForm = [&](const Trace &trace, bool last_line) {
        const auto artifact = buildReplayArtifact(trace, 16, "counted");
        obs::MetricsCollector metrics;
        DynamicExclusionConfig config;
        config.useLastLine = last_line;
        {
            obs::ScopedMetrics install(&metrics);
            EXPECT_TRUE(
                replayTriadKernel(*artifact, sizes, config, "counted")
                    .allOk());
        }
        return metrics.total(obs::Counter::KernelClosedFormRefs);
    };
    const Trace all = privateAtAllSizes(16);
    EXPECT_EQ(closedForm(all, false), 2 * all.size());
    EXPECT_EQ(closedForm(all, true), 2 * all.size());
    const Trace none = privateAtNoSize(sizes, 16);
    EXPECT_EQ(closedForm(none, false), 0u);
    const PackedTraceView view(none, 16);
    Count within = 0;
    for (std::size_t i = 1; i < view.size(); ++i)
        within += view.ids()[i] == view.ids()[i - 1];
    EXPECT_GT(within, 0u);
    EXPECT_EQ(closedForm(none, true), 2 * within);
}

TEST(ClosedForm, FaultOnAMiddleLegLeavesTheOthersExact)
{
    // A failed middle leg drops out of the ascending refinement; the
    // legs around it still see exactly their own non-private entries.
    struct HookGuard
    {
        ~HookGuard() { setSweepFaultHook({}); }
    } hook_guard;
    const std::vector<std::uint64_t> sizes = {1024, 2048, 4096, 8192,
                                              16 * 1024};
    for (const bool last_line : {false, true}) {
        const Trace trace = privateAtEverySize(sizes, 16);
        const auto artifact = buildReplayArtifact(trace, 16, "middle");
        DynamicExclusionConfig config;
        config.useLastLine = last_line;
        setSweepFaultHook([](const std::string &, std::uint64_t size) {
            if (size == 4096)
                throw StatusError(Status::internal("injected"));
        });
        const TriadBatchOutcome faulted =
            replayTriadKernel(*artifact, sizes, config, trace.name());
        setSweepFaultHook({});
        ASSERT_EQ(faulted.failures.size(), 1u);
        EXPECT_EQ(faulted.failures[0].sizeBytes, 4096u);
        for (std::size_t s = 0; s < sizes.size(); ++s) {
            if (sizes[s] == 4096) {
                EXPECT_FALSE(faulted.ok[s]);
                continue;
            }
            ASSERT_TRUE(faulted.ok[s]);
            expectTriadEq(faulted.triads[s],
                          runTriad(trace, artifact->index(), sizes[s], 16,
                                   config),
                          "lastline " + std::to_string(last_line) +
                              " size " + std::to_string(sizes[s]));
        }
    }
}

TEST(KernelReplay, EmptyTraceYieldsZeroedStats)
{
    Trace trace("empty");
    const auto triads =
        kernelTriads(*buildReplayArtifact(trace, 4, "empty"), {256, 1024});
    ASSERT_EQ(triads.size(), 2u);
    for (const auto &triad : triads) {
        EXPECT_EQ(triad.dm.accesses, 0u);
        EXPECT_EQ(triad.de.accesses, 0u);
        EXPECT_EQ(triad.opt.accesses, 0u);
    }
    for (const ReplayEngine engine :
         {ReplayEngine::Kernel, batchedAlias(), ReplayEngine::PerLeg}) {
        const auto swept = sweepSizes(trace, {256, 1024}, 4, {}, engine);
        ASSERT_TRUE(swept.allOk());
        for (const auto &point : swept.points) {
            EXPECT_EQ(point.dmMissPct, 0.0);
            EXPECT_EQ(point.deMissPct, 0.0);
            EXPECT_EQ(point.optMissPct, 0.0);
        }
    }
}

} // namespace
} // namespace dynex

/**
 * @file
 * Integration tests replaying Section 3's three canonical conflict
 * patterns through the conventional, dynamic-exclusion, and optimal
 * direct-mapped caches, checking the paper's exact miss counts and
 * training bounds.
 *
 * Paper reference points (200/110/20-reference patterns):
 *   (a^10 b^10)^10 : DM 10%, optimal 10%
 *   (a^10 b)^10    : DM 18%, optimal ~10%
 *   (a b)^10       : DM 100%, optimal 55%
 * and dynamic exclusion converges to within two misses of optimal.
 */

#include <gtest/gtest.h>

#include "cache/direct_mapped.h"
#include "cache/dynamic_exclusion.h"
#include "cache/optimal.h"
#include "trace/next_use.h"
#include "util/rng.h"
#include "../test_helpers.h"

namespace dynex
{
namespace
{

using test::missCount;
using test::repeat;
using test::replayPattern;

constexpr std::uint64_t kCacheBytes = 64;
constexpr std::uint32_t kLineBytes = 4;
constexpr Addr kStride = kCacheBytes; // all letters share one set

CacheGeometry
geometry()
{
    return CacheGeometry::directMapped(kCacheBytes, kLineBytes);
}

int
optimalMisses(const std::string &pattern)
{
    const Trace trace = Trace::fromPattern(pattern, 0x10000, kStride);
    const NextUseIndex index(trace, kLineBytes);
    OptimalDirectMappedCache opt(geometry(), index);
    for (std::size_t i = 0; i < trace.size(); ++i)
        opt.access(trace[i], i);
    return static_cast<int>(opt.stats().misses);
}

int
dynexMisses(const std::string &pattern, bool initial_hit_last = false,
            std::uint8_t sticky_max = 1)
{
    DynamicExclusionConfig config;
    config.initialHitLast = initial_hit_last;
    config.stickyMax = sticky_max;
    DynamicExclusionCache cache(geometry(), config);
    return missCount(replayPattern(cache, pattern, kStride));
}

int
dmMisses(const std::string &pattern)
{
    DirectMappedCache cache(geometry());
    return missCount(replayPattern(cache, pattern, kStride));
}

// ---- Pattern 1: conflict between loops, (a^10 b^10)^10 -------------

std::string
betweenLoops()
{
    return repeat(repeat("a", 10) + repeat("b", 10), 10);
}

TEST(PaperPatterns, BetweenLoopsDirectMappedMatchesPaper)
{
    // (am ah^9 bm bh^9)^10: 10% miss rate.
    EXPECT_EQ(dmMisses(betweenLoops()), 20);
}

TEST(PaperPatterns, BetweenLoopsOptimalMatchesPaper)
{
    // A conventional direct-mapped cache is already optimal here.
    EXPECT_EQ(optimalMisses(betweenLoops()), 20);
}

TEST(PaperPatterns, BetweenLoopsDynamicExclusionWithinTwoOfOptimal)
{
    const int optimal = optimalMisses(betweenLoops());
    for (const bool initial : {false, true}) {
        const int de = dynexMisses(betweenLoops(), initial);
        EXPECT_GE(de, optimal);
        EXPECT_LE(de, optimal + 2)
            << "initial h = " << initial;
    }
}

// ---- Pattern 2: conflict between loop levels, (a^10 b)^10 ----------

std::string
betweenLoopLevels()
{
    return repeat(repeat("a", 10) + "b", 10);
}

TEST(PaperPatterns, LoopLevelsDirectMappedMatchesPaper)
{
    // (am ah^9 bm)^10: every b costs two misses -> 18%.
    EXPECT_EQ(dmMisses(betweenLoopLevels()), 20);
    EXPECT_NEAR(20.0 / 110.0, 0.18, 0.005);
}

TEST(PaperPatterns, LoopLevelsOptimalMatchesPaper)
{
    // am bm (ah^10 bm)^9: b is never stored; a misses once.
    EXPECT_EQ(optimalMisses(betweenLoopLevels()), 11);
}

TEST(PaperPatterns, LoopLevelsDynamicExclusionWithinTwoOfOptimal)
{
    const int optimal = optimalMisses(betweenLoopLevels());
    for (const bool initial : {false, true}) {
        const int de = dynexMisses(betweenLoopLevels(), initial);
        EXPECT_GE(de, optimal);
        EXPECT_LE(de, optimal + 2) << "initial h = " << initial;
    }
}

TEST(PaperPatterns, LoopLevelsDynamicExclusionExactWithColdHitLast)
{
    // With h bits cold (0), b bypasses from its first conflict: a
    // misses once, b misses every execution -> exactly optimal.
    EXPECT_EQ(dynexMisses(betweenLoopLevels(), false), 11);
}

// ---- Pattern 3: conflict within a loop, (a b)^10 -------------------

std::string
withinLoop()
{
    return repeat("ab", 10);
}

TEST(PaperPatterns, WithinLoopDirectMappedThrashesCompletely)
{
    // (am bm)^10: 100% miss rate.
    EXPECT_EQ(dmMisses(withinLoop()), 20);
}

TEST(PaperPatterns, WithinLoopOptimalMatchesPaper)
{
    // am bm (ah bm)^9: 55%.
    EXPECT_EQ(optimalMisses(withinLoop()), 11);
}

TEST(PaperPatterns, WithinLoopDynamicExclusionHalvesMisses)
{
    const int optimal = optimalMisses(withinLoop());
    for (const bool initial : {false, true}) {
        const int de = dynexMisses(withinLoop(), initial);
        EXPECT_GE(de, optimal);
        EXPECT_LE(de, optimal + 3) << "initial h = " << initial;
        EXPECT_LT(de, dmMisses(withinLoop()))
            << "dynamic exclusion must beat thrashing";
    }
}

TEST(PaperPatterns, WithinLoopDynamicExclusionExactWithColdHitLast)
{
    EXPECT_EQ(dynexMisses(withinLoop(), false), 11);
}

// ---- Randomized trip counts ----------------------------------------

TEST(PaperPatterns, RandomTripCountsMatchClosedFormMisses)
{
    // The three patterns at seeded (m, n) against their closed forms.
    // Direct-mapped misses both letters every outer iteration (2n).
    // Optimal matches it on (a^m b^m)^n when m >= 2; on the other
    // patterns, and on (ab)^n spelt as m = 1, it keeps a and bypasses
    // b, missing a once and b every time (n + 1). Dynamic exclusion
    // stays within two misses of optimal.
    Rng rng(0x5ec3);
    for (int trial = 0; trial < 40; ++trial) {
        const int m = static_cast<int>(rng.nextRange(1, 12));
        const int n = static_cast<int>(rng.nextRange(1, 15));
        const struct
        {
            const char *name;
            std::string pattern;
            int optimal;
        } cases[] = {
            {"(a^m b^m)^n",
             repeat(repeat("a", m) + repeat("b", m), n),
             m >= 2 ? 2 * n : n + 1},
            {"(a^m b)^n", repeat(repeat("a", m) + "b", n), n + 1},
            {"(ab)^n", repeat("ab", n), n + 1},
        };
        for (const auto &c : cases) {
            SCOPED_TRACE(std::string(c.name) + " m=" + std::to_string(m) +
                         " n=" + std::to_string(n));
            EXPECT_EQ(dmMisses(c.pattern), 2 * n);
            EXPECT_EQ(optimalMisses(c.pattern), c.optimal);
            for (const bool initial : {false, true}) {
                const int de = dynexMisses(c.pattern, initial);
                EXPECT_GE(de, c.optimal) << "initial h = " << initial;
                EXPECT_LE(de, c.optimal + 2) << "initial h = " << initial;
            }
        }
    }
}

// ---- The hard pattern: (abc)^10 ------------------------------------

std::string
threeWay()
{
    return repeat("abc", 10);
}

TEST(PaperPatterns, ThreeWayConflictDefeatsSingleStickyBit)
{
    // "Both a direct-mapped cache and a dynamic exclusion cache using
    // the FSM in Figure 1 miss on all references."
    EXPECT_EQ(dmMisses(threeWay()), 30);
    EXPECT_EQ(dynexMisses(threeWay(), false, /*sticky_max=*/1), 30);
}

TEST(PaperPatterns, ThreeWayConflictHelpedByExtraStickyBits)
{
    // The TN-22 extension: sticky_max = 2 can lock one instruction in.
    const int with_two = dynexMisses(threeWay(), false, 2);
    EXPECT_LT(with_two, 30);
    EXPECT_LE(with_two, optimalMisses(threeWay()) + 2);
}

TEST(PaperPatterns, ExtraStickyBitsSlowPhaseChanges)
{
    // The flip side the paper warns about ("additional startup time is
    // required"): deeper sticky counters make the between-loops
    // pattern pay more training misses at each phase change.
    const int sticky1 = dynexMisses(betweenLoops(), false, 1);
    const int sticky4 = dynexMisses(betweenLoops(), false, 4);
    EXPECT_GT(sticky4, sticky1);

    // Exact values derived by hand from the FSM transition table.
    EXPECT_EQ(sticky1, 21);
    EXPECT_EQ(sticky4, 24);
}

} // namespace
} // namespace dynex

/** @file Unit tests of the next-use (Belady oracle) index. */

#include <gtest/gtest.h>

#include <string>

#include "trace/next_use.h"
#include "util/rng.h"

namespace dynex
{
namespace
{

TEST(NextUse, PerReferenceChains)
{
    // a b a b a : each a points to the next a, etc.
    const Trace trace = Trace::fromPattern("ababa", 0x1000, 64);
    const NextUseIndex index(trace, 4);
    EXPECT_EQ(index.nextUse(0), 2u);
    EXPECT_EQ(index.nextUse(1), 3u);
    EXPECT_EQ(index.nextUse(2), 4u);
    EXPECT_EQ(index.nextUse(3), kTickInfinity);
    EXPECT_EQ(index.nextUse(4), kTickInfinity);
}

TEST(NextUse, BlockGranularityGroupsWords)
{
    Trace trace("words");
    trace.append(ifetch(0x100)); // line 0x10
    trace.append(ifetch(0x104)); // same 16B line
    trace.append(ifetch(0x200));
    trace.append(ifetch(0x108)); // line 0x10 again
    const NextUseIndex index(trace, 16);
    EXPECT_EQ(index.nextUse(0), 1u);
    EXPECT_EQ(index.nextUse(1), 3u);
    EXPECT_EQ(index.nextUse(2), kTickInfinity);
}

TEST(NextUse, RunStartModeSkipsWithinRunReferences)
{
    // a a a b a a : with runs collapsed, position 0's next use is the
    // run start at position 4, not position 1.
    const Trace trace = Trace::fromPattern("aaabaa", 0x1000, 64);
    const NextUseIndex index(trace, 4, NextUseMode::RunStart);
    EXPECT_EQ(index.nextUse(0), 4u);
    EXPECT_EQ(index.nextUse(1), 4u);
    EXPECT_EQ(index.nextUse(2), 4u);
    EXPECT_EQ(index.nextUse(3), kTickInfinity);
    EXPECT_EQ(index.nextUse(4), kTickInfinity);
    EXPECT_EQ(index.mode(), NextUseMode::RunStart);
}

TEST(NextUse, SingleReferenceIsInfinity)
{
    const Trace trace = Trace::fromPattern("a");
    const NextUseIndex index(trace, 4);
    EXPECT_EQ(index.nextUse(0), kTickInfinity);
}

TEST(NextUse, EmptyTraceIsEmptyIndex)
{
    Trace trace;
    const NextUseIndex index(trace, 4);
    EXPECT_EQ(index.size(), 0u);
}

TEST(NextUse, MixedTypesShareTheAddressSpace)
{
    // Next-use is address-based: a load and an ifetch of the same
    // block chain together (combined-cache semantics).
    Trace trace("mixed");
    trace.append(ifetch(0x100));
    trace.append(load(0x100));
    const NextUseIndex index(trace, 4);
    EXPECT_EQ(index.nextUse(0), 1u);
}

TEST(NextUseDeathTest, RejectsNonPowerOfTwoBlock)
{
    Trace trace;
    EXPECT_DEATH(NextUseIndex(trace, 12), "power of two");
}

/** A randomized trace with runs, revisits, and wide-address outliers —
 * designed to exercise table growth and collision chains. */
Trace
randomizedTrace(std::uint64_t seed, std::size_t refs)
{
    Rng rng(seed);
    Trace trace("random");
    trace.reserve(refs);
    while (trace.size() < refs) {
        const Addr base = 0x4000 + 4 * rng.nextBelow(1 << 16);
        const int run = 1 + static_cast<int>(rng.nextBelow(6));
        for (int j = 0; j < run && trace.size() < refs; ++j)
            trace.append(ifetch(base + 4 * static_cast<Addr>(j)));
        if (rng.nextBelow(16) == 0) // sparse far-address outlier
            trace.append(load((Addr{1} << 40) + 64 * rng.nextBelow(64)));
    }
    trace.mutableRecords().resize(refs);
    return trace;
}

/** The index built from @p trace's packed view equals the map
 * oracle's, in both modes. */
void
expectMatchesMapOracle(const Trace &trace, std::uint32_t block,
                        const std::string &label)
{
    const PackedTraceView view(trace, block);
    for (const NextUseMode mode :
         {NextUseMode::AnyReference, NextUseMode::RunStart}) {
        const NextUseIndex index(view, mode);
        EXPECT_EQ(index.blockSize(), block);
        EXPECT_EQ(index.values(), nextUseByMap(trace, block, mode))
            << label << " block " << block << " mode "
            << static_cast<int>(mode);
    }
}

TEST(NextUse, IdPassMatchesMapOracleOnRandomTraces)
{
    // The backward pass over the view's dense ids must be exact-equal
    // to the reference unordered_map backward pass over block numbers:
    // both modes, several block granularities, several seeds.
    for (const std::uint64_t seed : {0x1234u, 0xbeefu, 0x77u}) {
        const Trace trace = randomizedTrace(seed, 40000);
        for (const std::uint32_t block : {4u, 16u, 64u})
            expectMatchesMapOracle(trace, block,
                                    "seed " + std::to_string(seed));
    }
}

TEST(NextUse, IdPassMatchesMapOracleOnEdgeTraces)
{
    expectMatchesMapOracle(Trace("empty"), 4, "empty");

    // At 1-byte granularity the top byte address is block
    // kAddrInvalid, a real block like any other: as the first
    // reference (a run start with no predecessor), in runs, and beside
    // a block that differs from it only above bit 32.
    Trace top("top");
    for (const Addr addr :
         {kAddrInvalid, kAddrInvalid, Addr{0x10}, kAddrInvalid - 1,
          kAddrInvalid, Addr{0xffffffff}, Addr{0x10}, kAddrInvalid,
          kAddrInvalid, Addr{0xffffffff}})
        top.append(load(addr, 1));
    expectMatchesMapOracle(top, 1, "top");
}

TEST(NextUse, TraceWrapperMatchesTheViewBuild)
{
    const Trace trace = randomizedTrace(0x51, 5000);
    const PackedTraceView view(trace, 16);
    EXPECT_EQ(NextUseIndex(trace, 16, NextUseMode::RunStart).values(),
              NextUseIndex(view, NextUseMode::RunStart).values());
}

TEST(NextUse, TableGrowthPreservesChains)
{
    // A trace of mostly-distinct blocks forces the view's id table
    // past its initial capacity mid-build; the chains built from the
    // ids must survive the rehash.
    Trace trace("distinct");
    const std::size_t n = 4096;
    for (std::size_t i = 0; i < n; ++i)
        trace.append(ifetch(0x1000 + 64 * static_cast<Addr>(i)));
    for (std::size_t i = 0; i < n; ++i)
        trace.append(ifetch(0x1000 + 64 * static_cast<Addr>(i)));
    const NextUseIndex index(trace, 4);
    for (std::size_t i = 0; i < n; ++i) {
        EXPECT_EQ(index.nextUse(i), n + i);
        EXPECT_EQ(index.nextUse(n + i), kTickInfinity);
    }
}

} // namespace
} // namespace dynex

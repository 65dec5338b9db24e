/**
 * @file
 * Edge-case and error-path tests across modules: argument validation
 * death tests and boundary behaviors not covered by the per-module
 * suites.
 */

#include <gtest/gtest.h>

#include "cache/direct_mapped.h"
#include "cache/dynamic_exclusion.h"
#include "cache/exclusion_stream.h"
#include "cache/victim.h"
#include "sim/analysis.h"
#include "sim/runner.h"
#include "tracegen/builder.h"
#include "tracegen/data_pattern.h"
#include "tracegen/executor.h"

namespace dynex
{
namespace
{

TEST(EdgeCases, SingleLineCacheWorks)
{
    // The degenerate geometry: one line, everything conflicts.
    DynamicExclusionCache cache(CacheGeometry::directMapped(4, 4));
    EXPECT_FALSE(cache.access(ifetch(0x0), 0).hit);
    EXPECT_TRUE(cache.access(ifetch(0x0), 1).hit);
    EXPECT_TRUE(cache.access(ifetch(0x4), 2).bypassed);
}

TEST(EdgeCases, WholeCacheLineGeometry)
{
    // line size == cache size: one line holding one huge block.
    DirectMappedCache cache(CacheGeometry::directMapped(64, 64));
    EXPECT_FALSE(cache.access(ifetch(0x0), 0).hit);
    EXPECT_TRUE(cache.access(ifetch(0x3c), 1).hit);
    EXPECT_FALSE(cache.access(ifetch(0x40), 2).hit);
}

TEST(EdgeCasesDeathTest, PatternArgumentValidation)
{
    EXPECT_DEATH(SequentialPattern(0, 4, 8), "region shorter");
    EXPECT_DEATH(RandomPattern(0, 0, 1), "at least one word");
    EXPECT_DEATH(PointerChasePattern(0, 1, 16, 1), "at least two");
    EXPECT_DEATH(StackPattern(0, 64, 128, 1), "fit the stack");
    MixPattern empty(1);
    EXPECT_DEATH(empty.next(), "no components");
}

TEST(EdgeCasesDeathTest, ProgramTreeValidation)
{
    Program program("p");
    EXPECT_DEATH(CodeBlock(0x1001, 4), "aligned");
    EXPECT_DEATH(CodeBlock(0x1000, 0), "empty code block");
    EXPECT_DEATH(loop(codeBlock(program, 4), 5, 2), "iteration range");
    EXPECT_DEATH(loop(NodePtr{}, 1, 2), "loop without body");
    EXPECT_DEATH(Call(nullptr), "null function");
    EXPECT_DEATH(program.allocateCodeAliasing(0x1000, 4, 3000),
                 "power of two");
}

TEST(EdgeCasesDeathTest, CacheArgumentValidation)
{
    EXPECT_DEATH(VictimCache(CacheGeometry::directMapped(64, 4), 0),
                 "at least one victim");
    EXPECT_DEATH(ExclusionStreamCache(
                     CacheGeometry::directMapped(64, 4), 0),
                 "depth must be at least 1");
    DynamicExclusionConfig bad;
    bad.stickyMax = 0;
    EXPECT_DEATH(DynamicExclusionCache(
                     CacheGeometry::directMapped(64, 4), bad),
                 "stickyMax");
}

TEST(EdgeCases, EmptyTraceThroughEverything)
{
    Trace empty("empty");
    DynamicExclusionCache de(CacheGeometry::directMapped(64, 4));
    EXPECT_EQ(runTrace(de, empty).accesses, 0u);

    const WarmSplit split = runTraceSplit(de, empty, 0.5);
    EXPECT_EQ(split.warmup.accesses + split.steady.accesses, 0u);

    const ConflictCensus census =
        conflictCensus(empty, CacheGeometry::directMapped(64, 4));
    EXPECT_EQ(census.unconflicted() + census.twoWay() +
                  census.multiWay(),
              0u);
}

TEST(EdgeCases, FullWarmupFractionPutsEverythingInWarmup)
{
    DynamicExclusionCache cache(CacheGeometry::directMapped(64, 4));
    const Trace trace = Trace::fromPattern("abab", 0x1000, 64);
    const WarmSplit split = runTraceSplit(cache, trace, 1.0);
    EXPECT_EQ(split.warmup.accesses, 4u);
    EXPECT_EQ(split.steady.accesses, 0u);
}

TEST(EdgeCases, TickOverloadIsHarmlessForNonOracleCaches)
{
    // Non-oracle caches ignore the tick entirely: replaying with
    // arbitrary tick values changes nothing.
    DynamicExclusionCache a(CacheGeometry::directMapped(64, 4));
    DynamicExclusionCache b(CacheGeometry::directMapped(64, 4));
    const Trace trace =
        Trace::fromPattern("aabbaabb", 0x1000, 64);
    for (std::size_t i = 0; i < trace.size(); ++i) {
        a.access(trace[i], i);
        b.access(trace[i], 0xdeadbeef);
    }
    EXPECT_EQ(a.stats().misses, b.stats().misses);
}

TEST(EdgeCases, GeneratorBudgetOfOneWorks)
{
    Program program("p");
    Function *entry = program.addFunction("main");
    entry->setBody(codeBlock(program, 100));
    program.setEntry(entry);
    EXPECT_EQ(generateTrace(program, 1, 1).size(), 1u);
}

TEST(EdgeCasesDeathTest, KeepingAKindTheProgramNeverEmitsPanics)
{
    Program program("p");
    Function *entry = program.addFunction("main");
    entry->setBody(codeBlock(program, 100));
    program.setEntry(entry);
    EXPECT_DEATH(generateTrace(program, 1, 1, RefKinds::Data),
                 "emitted nothing to keep");
}

} // namespace
} // namespace dynex

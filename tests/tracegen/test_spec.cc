/** @file Unit tests of the synthetic SPEC'89-like suite. */

#include <gtest/gtest.h>

#include <vector>

#include "tracegen/executor.h"
#include "tracegen/spec.h"

namespace dynex
{
namespace
{

TEST(SpecSuite, HasTheTenPaperBenchmarks)
{
    const auto &suite = specSuite();
    ASSERT_EQ(suite.size(), 10u);
    EXPECT_EQ(suite.front().name, "doduc");
    EXPECT_EQ(suite.back().name, "tomcatv");
    for (const auto &info : suite) {
        EXPECT_TRUE(isSpecBenchmark(info.name));
        EXPECT_FALSE(info.description.empty());
    }
    EXPECT_FALSE(isSpecBenchmark("quake"));
}

TEST(SpecSuite, TracesAreDeterministic)
{
    const Trace a = makeSpecTrace("li", 20000);
    const Trace b = makeSpecTrace("li", 20000);
    ASSERT_EQ(a.size(), b.size());
    for (std::size_t i = 0; i < a.size(); ++i)
        ASSERT_EQ(a[i], b[i]) << "position " << i;
}

TEST(SpecSuite, LongerBudgetsExtendTheSameStream)
{
    const Trace short_trace = makeSpecTrace("espresso", 5000);
    const Trace long_trace = makeSpecTrace("espresso", 15000);
    for (std::size_t i = 0; i < short_trace.size(); ++i)
        ASSERT_EQ(short_trace[i], long_trace[i]) << "position " << i;
}

/** The references of @p trace that are data (or not), in order. */
std::vector<MemRef>
refsOfKind(const Trace &trace, bool want_data)
{
    std::vector<MemRef> kept;
    for (const MemRef &ref : trace)
        if (isData(ref.type) == want_data)
            kept.push_back(ref);
    return kept;
}

class SpecBenchmarkTest
    : public ::testing::TestWithParam<const char *>
{
};

TEST_P(SpecBenchmarkTest, GeneratesMixedStreamWithPlausibleComposition)
{
    const Trace trace = makeSpecTrace(GetParam(), 40000);
    ASSERT_EQ(trace.size(), 40000u);
    const TraceSummary summary = trace.summarize();
    EXPECT_GT(summary.ifetches, summary.total / 2)
        << "instructions dominate the stream";
    EXPECT_GT(summary.loads + summary.stores, 0u)
        << "every benchmark touches data";
    EXPECT_GE(summary.loads, summary.stores)
        << "loads at least as common as stores";
}

TEST_P(SpecBenchmarkTest, KeptKindIsTheMixedStreamFiltered)
{
    // Keeping one kind walks the same program: the kept trace is the
    // mixed stream's references of that kind, in order.
    const Trace mixed = makeSpecTrace(GetParam(), 40000);
    for (const RefKinds keep : {RefKinds::Instructions, RefKinds::Data}) {
        const std::vector<MemRef> expected =
            refsOfKind(mixed, keep == RefKinds::Data);
        const Trace kept =
            makeSpecTrace(GetParam(), expected.size(), keep);
        EXPECT_EQ(kept.records(), expected);
    }
}

INSTANTIATE_TEST_SUITE_P(
    AllBenchmarks, SpecBenchmarkTest,
    ::testing::Values("doduc", "eqntott", "espresso", "fpppp", "gcc",
                      "li", "mat300", "nasa7", "spice", "tomcatv"));

TEST(SpecSuite, CodeFootprintsMatchTheirCharacter)
{
    // gcc is the biggest program; tomcatv and mat300 are tiny kernels.
    const auto gcc_size = makeSpecProgram("gcc")->codeFootprint();
    const auto tomcatv_size = makeSpecProgram("tomcatv")->codeFootprint();
    const auto mat300_size = makeSpecProgram("mat300")->codeFootprint();
    EXPECT_GT(gcc_size, 100u * 1024);
    EXPECT_LT(tomcatv_size, 8u * 1024);
    EXPECT_LT(mat300_size, 8u * 1024);
    EXPECT_GT(gcc_size, 20 * tomcatv_size);
}

TEST(SpecSuiteDeathTest, UnknownBenchmarkIsFatal)
{
    EXPECT_EXIT(makeSpecProgram("quake"),
                ::testing::ExitedWithCode(1), "unknown benchmark");
}

} // namespace
} // namespace dynex

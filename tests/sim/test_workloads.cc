/** @file Unit tests of the workload provider. */

#include <gtest/gtest.h>

#include <cstdlib>

#include "sim/workloads.h"

namespace dynex
{
namespace
{

TEST(Workloads, InstructionStreamIsPureIfetch)
{
    const Trace trace = Workloads::instructions("li", 30000);
    ASSERT_EQ(trace.size(), 30000u);
    for (const auto &ref : trace)
        ASSERT_EQ(ref.type, RefType::Ifetch);
}

TEST(Workloads, DataStreamIsPureData)
{
    const Trace trace = Workloads::data("gcc", 10000);
    ASSERT_EQ(trace.size(), 10000u);
    for (const auto &ref : trace)
        ASSERT_TRUE(isData(ref.type));
}

TEST(Workloads, EveryCallGeneratesAFreshTrace)
{
    // Nothing is cached: two calls hand back two traces, each with its
    // own records, and generation is deterministic, so they are equal
    // record for record.
    const Trace first = Workloads::instructions("tomcatv", 20000);
    const Trace second = Workloads::instructions("tomcatv", 20000);
    EXPECT_NE(first.records().data(), second.records().data());
    EXPECT_EQ(first.name(), second.name());
    ASSERT_EQ(first.size(), 20000u);
    ASSERT_EQ(first.size(), second.size());
    for (std::size_t i = 0; i < first.size(); ++i)
        ASSERT_EQ(first[i], second[i]);
}

TEST(Workloads, DifferentKeysAreDifferentTraces)
{
    const Trace a = Workloads::mixed("mat300", 20000);
    const Trace b = Workloads::mixed("mat300", 25000);
    EXPECT_EQ(a.size(), 20000u);
    EXPECT_EQ(b.size(), 25000u);
}

TEST(Workloads, DefaultRefsRespectsEnvironment)
{
    ::setenv("DYNEX_REFS", "123456", 1);
    EXPECT_EQ(Workloads::defaultRefs(), 123456u);
    ::setenv("DYNEX_REFS", "garbage", 1);
    EXPECT_EQ(Workloads::defaultRefs(), 2000000u)
        << "invalid values fall back to the built-in default";
    ::unsetenv("DYNEX_REFS");
    EXPECT_EQ(Workloads::defaultRefs(), 2000000u);
}

} // namespace
} // namespace dynex

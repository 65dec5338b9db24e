/**
 * @file
 * Campaign DSL tests: full-grammar parsing, defaulting, label
 * derivation, and the validation contract — every malformed document
 * yields a structured CorruptInput naming the offending line (or a
 * ResourceLimit at a hard cap), never a crash.
 */

#include <gtest/gtest.h>

#include <string>

#include "sim/sweep.h"
#include "workload/campaign.h"

namespace dynex::workload
{
namespace
{

Result<CampaignSpec>
parse(const std::string &text)
{
    return parseCampaign(text);
}

void
expectLineError(const std::string &text, int line,
                StatusCode code = StatusCode::CorruptInput)
{
    const auto spec = parse(text);
    ASSERT_FALSE(spec.ok()) << "parsed: " << text;
    EXPECT_EQ(spec.status().code(), code) << spec.status().toString();
    if (code == StatusCode::CorruptInput) {
        EXPECT_NE(spec.status().message().find(
                      "line " + std::to_string(line)),
                  std::string::npos)
            << spec.status().toString();
    }
}

TEST(CampaignParse, FullGrammarRoundTrips)
{
    const auto spec = parse(
        "# a comment\n"
        "campaign \"full\" {\n"
        "  trace bench espresso;\n"
        "  trace file \"traces/li.dxt2\" as li;\n"
        "  trace import \"traces/gcc.txt\" format text as gcc;\n"
        "  trace import \"traces/cc1.lk\" format lackey;\n"
        "  models dm, opt;\n"
        "  sizes 1KB, 2KB, 4KB;\n"
        "  lines 4, 16;\n"
        "  refs 100000;\n"
        "  engine kernel;\n"
        "  sticky 2;\n"
        "  output json \"out.json\";\n"
        "  output csv \"out.csv\";\n"
        "}\n");
    ASSERT_TRUE(spec.ok()) << spec.status().toString();
    const CampaignSpec &c = spec.value();
    EXPECT_EQ(c.name, "full");
    ASSERT_EQ(c.traces.size(), 4u);
    EXPECT_EQ(c.traces[0].kind, SourceKind::Bench);
    EXPECT_EQ(c.traces[0].spec, "espresso");
    EXPECT_EQ(c.traces[0].label, "espresso");
    EXPECT_EQ(c.traces[1].kind, SourceKind::File);
    EXPECT_EQ(c.traces[1].label, "li");
    EXPECT_EQ(c.traces[2].kind, SourceKind::Import);
    EXPECT_EQ(c.traces[2].format, "text");
    EXPECT_EQ(c.traces[2].label, "gcc");
    EXPECT_EQ(c.traces[3].format, "lackey");
    EXPECT_EQ(c.traces[3].label, "cc1"); // basename minus extension
    EXPECT_EQ(c.models, (std::vector<std::string>{"dm", "opt"}));
    EXPECT_TRUE(c.hasModel("dm"));
    EXPECT_FALSE(c.hasModel("dynex"));
    EXPECT_EQ(c.sizes, (std::vector<std::uint64_t>{1024, 2048, 4096}));
    EXPECT_EQ(c.lines, (std::vector<std::uint32_t>{4, 16}));
    EXPECT_EQ(c.refs, 100000u);
    EXPECT_EQ(c.engine, ReplayEngine::Kernel);
    EXPECT_EQ(c.stickyMax, 2);
    EXPECT_EQ(c.jsonOut, "out.json");
    EXPECT_EQ(c.csvOut, "out.csv");
}

TEST(CampaignParse, MinimalSpecGetsTheDefaults)
{
    const auto spec =
        parse("campaign \"min\" { trace bench espresso; }");
    ASSERT_TRUE(spec.ok()) << spec.status().toString();
    const CampaignSpec &c = spec.value();
    EXPECT_EQ(c.models,
              (std::vector<std::string>{"dm", "dynex", "opt"}));
    EXPECT_EQ(c.sizes, paperCacheSizes());
    EXPECT_EQ(c.lines, (std::vector<std::uint32_t>{16}));
    EXPECT_EQ(c.engine, ReplayEngine::Kernel);
    EXPECT_EQ(c.stickyMax, 1);
    EXPECT_EQ(c.refs, 0u);
    EXPECT_TRUE(c.jsonOut.empty());
}

TEST(CampaignParse, BatchedEngineIsAnAliasOfTheKernel)
{
    // Specs written for the retired batched engine still parse and
    // run the kernel; per-leg stays the object-model path.
    const auto batched = parse(
        "campaign \"b\" { trace bench espresso; engine batched; }");
    ASSERT_TRUE(batched.ok()) << batched.status().toString();
    EXPECT_EQ(batched.value().engine, ReplayEngine::Kernel);
    const auto per_leg = parse(
        "campaign \"p\" { trace bench espresso; engine per-leg; }");
    ASSERT_TRUE(per_leg.ok()) << per_leg.status().toString();
    EXPECT_EQ(per_leg.value().engine, ReplayEngine::PerLeg);
}

TEST(CampaignParse, ErrorsNameTheOffendingLine)
{
    // Missing ';' after the trace statement on line 2.
    expectLineError("campaign \"x\" {\n"
                    "  trace bench espresso\n"
                    "}\n",
                    3);
    // Unknown statement keyword on line 2.
    expectLineError("campaign \"x\" {\n"
                    "  tracks bench espresso;\n"
                    "}\n",
                    2);
    // Unknown model on line 3.
    expectLineError("campaign \"x\" {\n"
                    "  trace bench espresso;\n"
                    "  models lru;\n"
                    "}\n",
                    3);
    // Unknown engine on line 3.
    expectLineError("campaign \"x\" {\n"
                    "  trace bench espresso;\n"
                    "  engine warp;\n"
                    "}\n",
                    3);
    // Sticky out of range on line 3.
    expectLineError("campaign \"x\" {\n"
                    "  trace bench espresso;\n"
                    "  sticky 256;\n"
                    "}\n",
                    3);
}

TEST(CampaignParse, RejectsHostileStrings)
{
    expectLineError("campaign \"x {\n}\n", 1);
    const auto spec = parse("campaign \"x\" { trace bench espresso; } trailing");
    ASSERT_FALSE(spec.ok());
    EXPECT_EQ(spec.status().code(), StatusCode::CorruptInput);
}

TEST(CampaignParse, RejectsDuplicateLabels)
{
    const auto spec = parse("campaign \"x\" {\n"
                            "  trace bench espresso;\n"
                            "  trace file \"espresso.dxt2\";\n"
                            "}\n");
    ASSERT_FALSE(spec.ok());
    EXPECT_EQ(spec.status().code(), StatusCode::CorruptInput);
    EXPECT_NE(spec.status().message().find("duplicate"),
              std::string::npos)
        << spec.status().toString();
}

TEST(CampaignParse, ValidatesTheSizeAxis)
{
    // Not a power of two.
    const auto odd = parse("campaign \"x\" {\n"
                           "  trace bench espresso;\n"
                           "  sizes 1KB, 3000;\n"
                           "}\n");
    ASSERT_FALSE(odd.ok());
    EXPECT_EQ(odd.status().code(), StatusCode::CorruptInput);
    // Not strictly increasing.
    const auto decreasing = parse("campaign \"x\" {\n"
                                  "  trace bench espresso;\n"
                                  "  sizes 2KB, 1KB;\n"
                                  "}\n");
    ASSERT_FALSE(decreasing.ok());
    EXPECT_EQ(decreasing.status().code(), StatusCode::CorruptInput);
    // Size below the line.
    const auto tiny = parse("campaign \"x\" {\n"
                            "  trace bench espresso;\n"
                            "  sizes 1KB;\n"
                            "  lines 2048;\n"
                            "}\n");
    ASSERT_FALSE(tiny.ok());
}

TEST(CampaignParse, CapsAreResourceLimits)
{
    // Too many traces.
    std::string many = "campaign \"x\" {\n";
    for (int i = 0; i < 17; ++i)
        many += "  trace file \"t" + std::to_string(i) + ".dxt2\";\n";
    many += "}\n";
    const auto traces = parse(many);
    ASSERT_FALSE(traces.ok());
    EXPECT_EQ(traces.status().code(), StatusCode::ResourceLimit);

    // Oversized document.
    std::string huge = "campaign \"x\" { trace bench espresso; }";
    huge.append(kMaxCampaignBytes, ' ');
    const auto doc = parse(huge);
    ASSERT_FALSE(doc.ok());
    EXPECT_EQ(doc.status().code(), StatusCode::ResourceLimit);
}

TEST(CampaignParse, RequiresAtLeastOneTrace)
{
    const auto spec = parse("campaign \"x\" { }");
    ASSERT_FALSE(spec.ok());
    EXPECT_EQ(spec.status().code(), StatusCode::CorruptInput);
}

TEST(CampaignParse, ImportRequiresAFormat)
{
    const auto spec = parse("campaign \"x\" {\n"
                            "  trace import \"a.txt\";\n"
                            "}\n");
    ASSERT_FALSE(spec.ok());
    EXPECT_EQ(spec.status().code(), StatusCode::CorruptInput);
}

TEST(CampaignParse, MissingFileIsIoErrorCarryingThePath)
{
    const auto spec = parseCampaignFile("/nonexistent/camp.dxc");
    ASSERT_FALSE(spec.ok());
    EXPECT_EQ(spec.status().code(), StatusCode::IoError);
    EXPECT_NE(spec.status().message().find("camp.dxc"),
              std::string::npos)
        << spec.status().toString();
}

} // namespace
} // namespace dynex::workload

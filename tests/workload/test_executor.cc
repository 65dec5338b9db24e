/**
 * @file
 * Campaign executor tests: trace-source resolution, merged-report
 * shape, and the byte-identity acceptance contract — the same
 * campaign renders byte-identical JSON and CSV reports at any worker
 * count, with any replay engine, and whether legs run locally or on
 * an in-process dynex server (uploaded by PUT, swept with the
 * campaign's custom size axis). Per-leg failures are recorded in the
 * report, not fatal.
 */

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "server/server.h"
#include "sim/runner.h"
#include "util/status.h"
#include "util/thread_pool.h"
#include "workload/campaign.h"
#include "workload/executor.h"

namespace dynex::workload
{
namespace
{

/** Restores the automatic thread configuration when a test exits. */
struct ThreadCountGuard
{
    ~ThreadCountGuard() { ThreadPool::setConfiguredWorkers(0); }
};

CampaignSpec
smallSpec(const std::string &engine = "batched")
{
    const std::string text = "campaign \"exec\" {\n"
                             "  trace bench espresso;\n"
                             "  trace bench doduc;\n"
                             "  models dm, dynex, opt;\n"
                             "  sizes 1KB, 2KB, 4KB;\n"
                             "  lines 4, 16;\n"
                             "  refs 20000;\n"
                             "  engine " + engine + ";\n"
                             "}\n";
    auto spec = parseCampaign(text);
    EXPECT_TRUE(spec.ok()) << spec.status().toString();
    return spec.ok() ? std::move(spec.value()) : CampaignSpec{};
}

std::string
runToJson(const CampaignSpec &spec, const CampaignOptions &options)
{
    const auto report = runCampaign(spec, options);
    EXPECT_TRUE(report.ok()) << report.status().toString();
    return report.ok() ? report.value().toJson() : std::string();
}

TEST(ResolveSource, BenchFileAndErrors)
{
    TraceSource bench;
    bench.kind = SourceKind::Bench;
    bench.spec = "espresso";
    bench.label = "esp";
    const auto trace = resolveSource(bench, 5000);
    ASSERT_TRUE(trace.ok()) << trace.status().toString();
    EXPECT_EQ(trace.value().name(), "esp");
    EXPECT_EQ(trace.value().size(), 5000u);

    TraceSource unknown = bench;
    unknown.spec = "not-a-benchmark";
    const auto missing = resolveSource(unknown, 5000);
    ASSERT_FALSE(missing.ok());
    EXPECT_EQ(missing.status().code(), StatusCode::CorruptInput);

    TraceSource file;
    file.kind = SourceKind::File;
    file.spec = "/nonexistent/trace.dxt2";
    file.label = "t";
    const auto nofile = resolveSource(file, 0);
    ASSERT_FALSE(nofile.ok());
}

TEST(CampaignExecutor, ReportCoversEveryLegInDeclarationOrder)
{
    const CampaignSpec spec = smallSpec();
    const auto report = runCampaign(spec, {});
    ASSERT_TRUE(report.ok()) << report.status().toString();
    // 2 traces x 2 lines x 3 sizes, (trace, line, size) order.
    ASSERT_EQ(report.value().legs.size(), 12u);
    EXPECT_EQ(report.value().name, "exec");
    // `engine batched` is an alias of the kernel; the report names the
    // engine that ran.
    EXPECT_EQ(report.value().engine, "kernel");
    EXPECT_TRUE(report.value().allOk());
    const auto &legs = report.value().legs;
    EXPECT_EQ(legs[0].trace, "espresso");
    EXPECT_EQ(legs[0].lineBytes, 4u);
    EXPECT_EQ(legs[0].sizeBytes, 1024u);
    EXPECT_EQ(legs[5].trace, "espresso");
    EXPECT_EQ(legs[5].lineBytes, 16u);
    EXPECT_EQ(legs[5].sizeBytes, 4096u);
    EXPECT_EQ(legs[6].trace, "doduc");
    for (const auto &leg : legs) {
        EXPECT_TRUE(leg.ok);
        EXPECT_GT(leg.dmMissPct, 0.0);
        EXPECT_GE(leg.dmMissPct, leg.optMissPct);
    }
}

TEST(CampaignExecutor, ReportsAreByteIdenticalAtAnyWorkerCount)
{
    ThreadCountGuard guard;
    const CampaignSpec spec = smallSpec();
    ThreadPool::setConfiguredWorkers(1);
    const std::string one = runToJson(spec, {});
    ThreadPool::setConfiguredWorkers(2);
    const std::string two = runToJson(spec, {});
    ThreadPool::setConfiguredWorkers(8);
    const std::string eight = runToJson(spec, {});
    EXPECT_EQ(one, two);
    EXPECT_EQ(one, eight);
    EXPECT_FALSE(one.empty());
}

TEST(CampaignExecutor, EnginesAgreeByteForByte)
{
    std::string perLeg = runToJson(smallSpec("per-leg"), {});
    const std::string batched = runToJson(smallSpec("batched"), {});
    const std::string kernel = runToJson(smallSpec("kernel"), {});
    // The engine name is part of the report (`batched` runs, and is
    // reported as, the kernel); normalize the per-leg name away so the
    // comparison covers the simulated numbers.
    const std::string from = "\"engine\":\"per-leg\"";
    const auto at = perLeg.find(from);
    ASSERT_NE(at, std::string::npos);
    perLeg.replace(at, from.size(), "\"engine\":\"kernel\"");
    EXPECT_EQ(perLeg, batched);
    EXPECT_EQ(perLeg, kernel);
}

TEST(CampaignExecutor, LocalAndRemoteReportsAreByteIdentical)
{
    ThreadCountGuard guard;
    ThreadPool::setConfiguredWorkers(2);
    const CampaignSpec spec = smallSpec();
    const std::string local = runToJson(spec, {});

    // A daemon serving nothing: every campaign trace arrives by PUT.
    server::ServerConfig config;
    config.workers = 2;
    server::Server server(std::move(config));
    ASSERT_TRUE(server.start().ok());

    CampaignOptions remote;
    remote.port = server.port();
    const std::string viaServer = runToJson(spec, remote);
    EXPECT_EQ(local, viaServer);

    // Re-running against the same (now warm) server must not drift:
    // re-uploads version the store key, never reuse a stale decode.
    const std::string warm = runToJson(spec, remote);
    EXPECT_EQ(local, warm);

    const auto counters = server.counters();
    EXPECT_EQ(counters.puts, 4u); // 2 traces x 2 runs
    server.stop();
}

TEST(CampaignExecutor, PerLegFailuresAreRecordedNotFatal)
{
    setSweepFaultHook([](const std::string &, std::uint64_t size) {
        if (size == 2048)
            throw StatusError(Status::internal("injected fault"));
    });
    const CampaignSpec spec = smallSpec();
    const auto report = runCampaign(spec, {});
    setSweepFaultHook({});
    ASSERT_TRUE(report.ok()) << report.status().toString();
    EXPECT_FALSE(report.value().allOk());
    EXPECT_FALSE(report.value().failures.empty());
    // The 2KB leg of each (trace, line) sweep failed; other sizes
    // still completed.
    for (const auto &leg : report.value().legs) {
        if (leg.sizeBytes == 2048)
            EXPECT_FALSE(leg.ok);
        else
            EXPECT_TRUE(leg.ok);
    }
    for (const auto &failure : report.value().failures) {
        EXPECT_EQ(failure.sizeBytes, 2048u);
        EXPECT_NE(failure.status.find("injected fault"),
                  std::string::npos);
    }
}

TEST(CampaignExecutor, CampaignLevelErrorsCarryTheCampaignName)
{
    auto parsed = parseCampaign("campaign \"broken\" {\n"
                                "  trace file \"/nonexistent/x.dxt2\";\n"
                                "}\n");
    ASSERT_TRUE(parsed.ok()) << parsed.status().toString();
    const auto report = runCampaign(parsed.value(), {});
    ASSERT_FALSE(report.ok());
    EXPECT_NE(report.status().message().find("broken"),
              std::string::npos)
        << report.status().toString();
}

} // namespace
} // namespace dynex::workload

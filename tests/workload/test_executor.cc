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

#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "server/server.h"
#include "sim/runner.h"
#include "sim/workloads.h"
#include "trace/trace_io.h"
#include "util/status.h"
#include "util/thread_pool.h"
#include "workload/campaign.h"
#include "workload/executor.h"
#include "workload/import.h"

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

CampaignSpec
parsedSpec(const std::string &text)
{
    auto spec = parseCampaign(text);
    EXPECT_TRUE(spec.ok()) << spec.status().toString();
    return spec.ok() ? std::move(spec.value()) : CampaignSpec{};
}

/** Files of every source kind a campaign reads, removed on exit. */
struct SourceFiles
{
    std::string text = ::testing::TempDir() + "exec_fanout.txt";
    std::string lackey = ::testing::TempDir() + "exec_fanout.lk";
    std::string dxt2 = ::testing::TempDir() + "exec_fanout.dxt2";

    SourceFiles()
    {
        const auto write = [](const std::string &bench,
                              const auto &writer) {
            const Trace trace(*Workloads::instructions(bench, 15000));
            const Status status = writer(trace);
            EXPECT_TRUE(status.ok()) << status.toString();
        };
        write("li", [&](const Trace &t) {
            return writeTextTraceFile(t, text);
        });
        write("gcc", [&](const Trace &t) {
            return writeLackeyTraceFile(t, lackey);
        });
        write("tomcatv", [&](const Trace &t) {
            return writeTraceFile(t, dxt2);
        });
    }

    ~SourceFiles()
    {
        std::remove(text.c_str());
        std::remove(lackey.c_str());
        std::remove(dxt2.c_str());
    }
};

TEST(CampaignFanOut, MixedSourcesAreByteIdenticalAtAnyWorkerCount)
{
    ThreadCountGuard guard;
    const SourceFiles files;
    const CampaignSpec spec = parsedSpec(
        "campaign \"mixed\" {\n"
        "  trace import \"" + files.text + "\" format text as txt;\n"
        "  trace import \"" + files.lackey + "\" format lackey as lk;\n"
        "  trace file \"" + files.dxt2 + "\" as dxt;\n"
        "  trace bench espresso;\n"
        "  sizes 1KB, 4KB, 16KB;\n"
        "  lines 4, 16, 32;\n"
        "  refs 15000;\n"
        "}\n");
    std::vector<std::string> json;
    std::vector<std::string> csv;
    for (const unsigned workers : {1u, 2u, 8u}) {
        ThreadPool::setConfiguredWorkers(workers);
        const auto report = runCampaign(spec, {});
        ASSERT_TRUE(report.ok()) << report.status().toString();
        ASSERT_EQ(report.value().legs.size(), 4u * 3u * 3u);
        EXPECT_TRUE(report.value().allOk());
        json.push_back(report.value().toJson());
        csv.push_back(report.value().toCsv());
    }
    EXPECT_EQ(json[0], json[1]);
    EXPECT_EQ(json[0], json[2]);
    EXPECT_EQ(csv[0], csv[1]);
    EXPECT_EQ(csv[0], csv[2]);
    // Legs follow spec order: every source's lines, then the next.
    EXPECT_LT(json[0].find("\"txt\""), json[0].find("\"lk\""));
    EXPECT_LT(json[0].find("\"lk\""), json[0].find("\"dxt\""));
    EXPECT_LT(json[0].find("\"dxt\""), json[0].find("\"espresso\""));
}

TEST(CampaignFanOut, FirstUnresolvableSourceInSpecOrderIsTheError)
{
    ThreadCountGuard guard;
    // The first failing source fails slowly (a bad last line after
    // 200K good ones); the second fails at once (no such file). With
    // several workers the second finishes first, and must still not
    // be the one reported.
    const std::string slow = ::testing::TempDir() + "exec_slow_bad.txt";
    {
        std::ofstream out(slow);
        for (int i = 0; i < 200000; ++i)
            out << "i " << std::hex << 0x1000 + 4 * i << "\n";
        out << "q 1\n";
    }
    const CampaignSpec spec = parsedSpec(
        "campaign \"two-bad\" {\n"
        "  trace bench espresso;\n"
        "  trace import \"" + slow + "\" format text as slow;\n"
        "  trace file \"/nonexistent/fast.dxt2\" as fast;\n"
        "  refs 5000;\n"
        "}\n");
    for (const unsigned workers : {1u, 8u}) {
        ThreadPool::setConfiguredWorkers(workers);
        const auto report = runCampaign(spec, {});
        ASSERT_FALSE(report.ok()) << workers << " workers";
        const std::string &message = report.status().message();
        EXPECT_EQ(report.status().code(), StatusCode::CorruptInput)
            << message;
        EXPECT_NE(message.find("two-bad"), std::string::npos) << message;
        EXPECT_NE(message.find("exec_slow_bad.txt"), std::string::npos)
            << message;
        EXPECT_NE(message.find("line 200001"), std::string::npos)
            << message;
        EXPECT_EQ(message.find("fast.dxt2"), std::string::npos)
            << message;
    }
    std::remove(slow.c_str());
}

TEST(CampaignFanOut, PerLegFailureListIsInSpecOrderAtAnyWorkerCount)
{
    ThreadCountGuard guard;
    setSweepFaultHook([](const std::string &, std::uint64_t size) {
        if (size == 2048 || size == 4096)
            throw StatusError(Status::internal("injected fault"));
    });
    const CampaignSpec spec = smallSpec();
    std::vector<std::string> lists;
    for (const unsigned workers : {1u, 8u}) {
        ThreadPool::setConfiguredWorkers(workers);
        const auto report = runCampaign(spec, {});
        ASSERT_TRUE(report.ok()) << report.status().toString();
        std::ostringstream list;
        for (const auto &failure : report.value().failures)
            list << failure.trace << ' ' << failure.lineBytes << ' '
                 << failure.sizeBytes << ' ' << failure.model << ' '
                 << failure.status << '\n';
        lists.push_back(list.str());
        // 2 traces x 2 lines x 2 failing sizes.
        EXPECT_EQ(report.value().failures.size(), 8u);
    }
    setSweepFaultHook({});
    EXPECT_EQ(lists[0], lists[1]);
    EXPECT_EQ(lists[0].find("espresso 4 2048"), 0u) << lists[0];
}

} // namespace
} // namespace dynex::workload

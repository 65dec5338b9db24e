/**
 * @file
 * End-to-end telemetry tests: a traced client and an in-process server
 * share one request trace id across the rpc/srv span boundary, legacy
 * (untraced) clients keep working against a telemetry-on server, the
 * `lat-*` histogram rows ride the existing STATS response, and a
 * telemetry-off server emits flat counters only — the A/B the overhead
 * gate measures. A served run report keeps the engine counters and the
 * server's STATS tallies apart.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "../obs/json_checker.h"
#include "obs/metrics.h"
#include "obs/run_report.h"
#include "obs/trace_events.h"
#include "server/client.h"
#include "server/server.h"

namespace dynex::server
{
namespace
{

constexpr const char *kHost = "127.0.0.1";
constexpr Count kRefs = 20000;

ServerConfig
benchServer(const std::string &bench, unsigned workers = 1)
{
    ServerConfig config;
    config.workers = workers;
    config.refs = kRefs;
    config.traces.push_back({bench, "", 0});
    return config;
}

Client
mustConnect(const Server &server)
{
    Client client;
    const Status status = client.connect(kHost, server.port());
    EXPECT_TRUE(status.ok()) << status.toString();
    return client;
}

std::map<std::string, std::uint64_t>
statsMap(Client &client)
{
    auto stats = client.stats();
    EXPECT_TRUE(stats.ok()) << stats.status().toString();
    std::map<std::string, std::uint64_t> rows;
    if (stats.ok())
        for (const auto &[name, value] : stats.value().counters)
            rows[name] = value;
    return rows;
}

/** Uninstalls the process-wide tracer when a test exits. */
struct TracerGuard
{
    obs::Tracer tracer;
    TracerGuard() { obs::Tracer::setActive(&tracer); }
    ~TracerGuard() { obs::Tracer::setActive(nullptr); }
};

TEST(ServerTelemetry, ClientAndServerSpansShareOneTraceId)
{
    TracerGuard traced;
    Server server(benchServer("li"));
    ASSERT_TRUE(server.start().ok());
    Client client = mustConnect(server);
    client.setTracing(true, 42);

    ReplayRequest request;
    request.trace = "li";
    request.model = "dm";
    ASSERT_TRUE(client.replay(request).ok());
    const std::uint64_t traceId = client.lastTraceId();
    ASSERT_NE(traceId, 0u);

    server.stop();
    bool sawRpc = false, sawServerSide = false;
    std::vector<std::string> serverSpanNames;
    for (const obs::TraceEvent &event : traced.tracer.sortedEvents())
    {
        if (event.traceId != traceId)
            continue;
        if (std::string(event.category) == "rpc")
            sawRpc = true;
        if (std::string(event.category) == "srv")
        {
            sawServerSide = true;
            serverSpanNames.push_back(event.name);
        }
    }
    EXPECT_TRUE(sawRpc);
    ASSERT_TRUE(sawServerSide);
    // The server tagged its pipeline stages with the client's id.
    EXPECT_NE(std::find(serverSpanNames.begin(), serverSpanNames.end(),
                        "replay"),
              serverSpanNames.end());
}

TEST(ServerTelemetry, StoreLoadSpanLandsInTheBucketItsSeriesCounted)
{
    TracerGuard traced;
    Server server(benchServer("li"));
    ASSERT_TRUE(server.start().ok());
    Client client = mustConnect(server);
    SweepRequest request;
    request.trace = "li";
    ASSERT_TRUE(client.sweep(request).ok());
    server.stop();

    std::vector<std::uint64_t> loads;
    for (const obs::TraceEvent &event : traced.tracer.sortedEvents())
        if (std::string(event.category) == "srv" &&
            event.name == "store-load")
            loads.push_back(event.durNs);
    ASSERT_EQ(loads.size(), 1u);
    const obs::HistogramSnapshot counted =
        server.latencyHistograms().snapshot(obs::Latency::StoreLoad);
    EXPECT_EQ(counted.count, 1u);
    EXPECT_EQ(counted.sumNs, loads[0]);
    EXPECT_EQ(counted.buckets[obs::histogramBucket(loads[0])], 1u);
}

TEST(ServerTelemetry, EachTracedCallMintsAFreshNonZeroId)
{
    Server server(benchServer("li"));
    ASSERT_TRUE(server.start().ok());
    Client client = mustConnect(server);
    client.setTracing(true, 7);

    ASSERT_TRUE(client.ping().ok());
    const std::uint64_t first = client.lastTraceId();
    ASSERT_TRUE(client.ping().ok());
    const std::uint64_t second = client.lastTraceId();
    EXPECT_NE(first, 0u);
    EXPECT_NE(second, 0u);
    EXPECT_NE(first, second);

    // Same seed, fresh client: the id sequence is deterministic. The
    // single worker serves one connection at a time, so release it
    // before the second client's hello.
    client.close();
    Client replayed = mustConnect(server);
    replayed.setTracing(true, 7);
    ASSERT_TRUE(replayed.ping().ok());
    EXPECT_EQ(replayed.lastTraceId(), first);
}

TEST(ServerTelemetry, UntracedClientsKeepWorking)
{
    Server server(benchServer("li"));
    ASSERT_TRUE(server.start().ok());
    Client client = mustConnect(server);
    // No setTracing: legacy flags=0 frames end to end.
    ASSERT_TRUE(client.ping().ok());
    ReplayRequest request;
    request.trace = "li";
    request.model = "dm";
    EXPECT_TRUE(client.replay(request).ok());
    EXPECT_EQ(client.lastTraceId(), 0u);
}

TEST(ServerTelemetry, StatsResponseCarriesLatencyRows)
{
    Server server(benchServer("li"));
    ASSERT_TRUE(server.start().ok());
    Client client = mustConnect(server);

    ASSERT_TRUE(client.ping().ok());
    ReplayRequest request;
    request.trace = "li";
    request.model = "dm";
    ASSERT_TRUE(client.replay(request).ok());

    const auto rows = statsMap(client);
    ASSERT_TRUE(rows.count("lat-e2e-ping-count"));
    EXPECT_GE(rows.at("lat-e2e-ping-count"), 1u);
    ASSERT_TRUE(rows.count("lat-e2e-replay-count"));
    EXPECT_GE(rows.at("lat-e2e-replay-count"), 1u);
    // The pipeline-stage series recorded too.
    EXPECT_TRUE(rows.count("lat-store-load-count"));
    EXPECT_TRUE(rows.count("lat-replay-count"));
    EXPECT_TRUE(rows.count("lat-serialize-count"));
    EXPECT_TRUE(rows.count("lat-queue-wait-count"));
    // Percentile rows accompany every series.
    EXPECT_TRUE(rows.count("lat-e2e-replay-p99-us"));
    EXPECT_TRUE(rows.count("lat-e2e-replay-max-us"));
    // The flat counters are still there.
    EXPECT_GE(rows.at("requests"), 3u);
}

TEST(ServerTelemetry, TelemetryOffLeavesOnlyFlatCounters)
{
    ServerConfig config = benchServer("li");
    config.telemetry = false;
    Server server(config);
    ASSERT_TRUE(server.start().ok());
    Client client = mustConnect(server);

    ASSERT_TRUE(client.ping().ok());
    ReplayRequest request;
    request.trace = "li";
    request.model = "dm";
    ASSERT_TRUE(client.replay(request).ok());

    for (const auto &[name, value] : statsMap(client))
        EXPECT_NE(name.rfind("lat-", 0), 0u)
            << name << " leaked from a telemetry-off server";
}

TEST(ServerTelemetry, ServedReportKeepsEngineCountersAndStatsApart)
{
    // Built the way dynex_serve --metrics-out builds it: the engine
    // counters from the collector, the server tallies from STATS rows.
    obs::MetricsCollector collector;
    obs::RunReport report;
    {
        const obs::ScopedMetrics installed(&collector);
        Server server(benchServer("li"));
        ASSERT_TRUE(server.start().ok());
        Client client = mustConnect(server);
        ASSERT_TRUE(client.ping().ok());
        SweepRequest sweep;
        sweep.trace = "li";
        ASSERT_TRUE(client.sweep(sweep).ok());
        server.stop();
        obs::RunInfo info;
        info.trace = "server";
        info.engine = "server";
        report = obs::RunReport::build(info, collector, {});
        report.extra = server.statsRows();
    }

    const std::string json = report.toJson();
    const auto doc = testjson::JsonParser::parse(json);
    ASSERT_TRUE(doc.has_value()) << json;
    const auto *counters = doc->find("counters");
    ASSERT_NE(counters, nullptr);
    std::vector<std::string> keys;
    for (const auto &member : counters->members)
        keys.push_back(member.first);
    EXPECT_EQ(keys, (std::vector<std::string>{
                        "trace-load-ns", "trace-load-refs",
                        "index-build-ns", "index-builds", "replay-chunks",
                        "kernel-closed-form-refs"}));
    EXPECT_GT(counters->find("trace-load-refs")->number, 0.0);

    const auto *served = doc->find("server");
    ASSERT_NE(served, nullptr);
    for (const char *key :
         {"requests", "errors", "busy", "bytes-in", "bytes-out",
          "admitted", "shed", "retry-after-ms", "chaos-busy",
          "chaos-truncations", "chaos-delays", "chaos-load-failures",
          "store-trace-hits", "store-trace-misses", "store-trace-loads",
          "store-load-failures", "store-index-hits",
          "store-index-builds", "store-evictions"})
        EXPECT_NE(served->find(key), nullptr) << key;
    EXPECT_EQ(served->find("requests")->number, 2.0);
    EXPECT_EQ(served->find("admitted")->number, 1.0);
}

} // namespace
} // namespace dynex::server

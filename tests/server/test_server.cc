/**
 * @file
 * End-to-end server tests: an in-process Server plus Client pairs
 * exercising the whole DXP1 surface — ping/list/replay/sweep/stats —
 * with the acceptance contracts attached: sweep responses bit-identical
 * to local sweepSizes at any worker count and either engine, a
 * warm TraceStore serving the second sweep with zero new loads or
 * index builds, explicit BUSY backpressure (with a retry-after hint)
 * on a full queue and on admission sheds, deadline expiry as a
 * structured DeadlineExceeded, per-client fair admission fed by the
 * DXP1 hello, hostile frames answered with ERROR frames (never a
 * crash), and a graceful drain.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <bit>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <map>
#include <mutex>
#include <set>
#include <string>
#include <sys/socket.h>
#include <thread>
#include <vector>

#include "cache/factory.h"
#include "obs/metrics.h"
#include "server/client.h"
#include "server/net.h"
#include "server/server.h"
#include "sim/runner.h"
#include "sim/sweep.h"
#include "sim/workloads.h"
#include "trace/next_use.h"
#include "trace/trace_io.h"
#include "util/thread_pool.h"
#include "util/version.h"

namespace dynex::server
{
namespace
{

constexpr const char *kHost = "127.0.0.1";
constexpr Count kRefs = 20000;

/** Restores the automatic thread configuration when a test exits. */
struct ThreadCountGuard
{
    ~ThreadCountGuard() { ThreadPool::setConfiguredWorkers(0); }
};

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

TEST(ServerEndToEnd, PingReportsVersionAndTraceCount)
{
    Server server(benchServer("espresso"));
    ASSERT_TRUE(server.start().ok());
    Client client = mustConnect(server);

    const auto info = client.ping();
    ASSERT_TRUE(info.ok()) << info.status().toString();
    EXPECT_EQ(info.value().version, versionString());
    EXPECT_EQ(info.value().traces, 1u);
}

TEST(ServerEndToEnd, ListReportsResidencyAfterFirstUse)
{
    Server server(benchServer("mat300"));
    ASSERT_TRUE(server.start().ok());
    Client client = mustConnect(server);

    auto cold = client.list();
    ASSERT_TRUE(cold.ok()) << cold.status().toString();
    ASSERT_EQ(cold.value().size(), 1u);
    EXPECT_EQ(cold.value()[0].name, "mat300");
    EXPECT_EQ(cold.value()[0].resident, 0);

    ReplayRequest replay;
    replay.trace = "mat300";
    replay.model = "dm";
    ASSERT_TRUE(client.replay(replay).ok());

    auto warm = client.list();
    ASSERT_TRUE(warm.ok()) << warm.status().toString();
    EXPECT_EQ(warm.value()[0].resident, 1);
}

TEST(ServerEndToEnd, ReplayMatchesALocalSimulationExactly)
{
    Server server(benchServer("li"));
    ASSERT_TRUE(server.start().ok());
    Client client = mustConnect(server);

    ReplayRequest request;
    request.trace = "li";
    request.model = "dynex";
    request.sizeBytes = 16 * 1024;
    request.lineBytes = 16;
    request.stickyMax = 2;
    request.lastLine = 1;
    const auto remote = client.replay(request);
    ASSERT_TRUE(remote.ok()) << remote.status().toString();

    const Trace local = Workloads::instructions("li", kRefs);
    DynamicExclusionConfig config;
    config.stickyMax = 2;
    config.useLastLine = true;
    const auto geo = CacheGeometry::directMapped(request.sizeBytes,
                                                 request.lineBytes);
    const auto cache = makeCache("dynex", geo, config);
    const CacheStats expected = runTrace(*cache, local);

    EXPECT_EQ(remote.value().refs, local.size());
    EXPECT_EQ(remote.value().model, cache->name());
    EXPECT_EQ(remote.value().stats.accesses, expected.accesses);
    EXPECT_EQ(remote.value().stats.hits, expected.hits);
    EXPECT_EQ(remote.value().stats.misses, expected.misses);
    EXPECT_EQ(remote.value().stats.coldMisses, expected.coldMisses);
    EXPECT_EQ(remote.value().stats.fills, expected.fills);
    EXPECT_EQ(remote.value().stats.bypasses, expected.bypasses);
    EXPECT_EQ(remote.value().stats.evictions, expected.evictions);
}

TEST(ServerEndToEnd, SweepsAreBitIdenticalToLocalAtAnyWorkerCount)
{
    ThreadCountGuard guard;
    constexpr std::uint32_t kLine = 16;

    // The local truth, computed serially with the same trace, index
    // granularity, and sweep configuration the server uses.
    ThreadPool::setConfiguredWorkers(1);
    const Trace local = Workloads::instructions("espresso", kRefs);
    DynamicExclusionConfig config;
    config.useLastLine = kLine > 4;

    // Every engine byte — 0 (batched, now the kernel), 1 (per-leg)
    // and 2 (kernel) — must reproduce the object models' sweep.
    const SizeSweepOutcome expected = sweepSizes(
        local, paperCacheSizes(), kLine, config, ReplayEngine::PerLeg);
    ASSERT_TRUE(expected.allOk());
    for (const std::uint8_t wireEngine : {0, 1, 2})
    {
        for (const unsigned workers : {1u, 2u, 8u})
        {
            ThreadPool::setConfiguredWorkers(workers);
            Server server(benchServer("espresso", workers));
            ASSERT_TRUE(server.start().ok());
            Client client = mustConnect(server);

            SweepRequest request;
            request.trace = "espresso";
            request.lineBytes = kLine;
            request.engine = wireEngine;
            const auto remote = client.sweep(request);
            ASSERT_TRUE(remote.ok()) << remote.status().toString();

            EXPECT_EQ(remote.value().trace, local.name());
            EXPECT_EQ(remote.value().refs, local.size());
            const SizeSweepOutcome &outcome = remote.value().outcome;
            EXPECT_TRUE(outcome.failures.empty());
            ASSERT_EQ(outcome.points.size(), expected.points.size());
            for (std::size_t s = 0; s < expected.points.size(); ++s)
            {
                const auto &got = outcome.points[s];
                const auto &want = expected.points[s];
                EXPECT_EQ(got.sizeBytes, want.sizeBytes);
                EXPECT_EQ(outcome.ok[s], 1);
                // Bit-identical, not approximately equal: the wire
                // carries the exact doubles the engine produced.
                EXPECT_EQ(std::bit_cast<std::uint64_t>(got.dmMissPct),
                          std::bit_cast<std::uint64_t>(want.dmMissPct))
                    << "engine " << int(wireEngine) << " workers "
                    << workers << " size " << want.sizeBytes;
                EXPECT_EQ(std::bit_cast<std::uint64_t>(got.deMissPct),
                          std::bit_cast<std::uint64_t>(want.deMissPct));
                EXPECT_EQ(std::bit_cast<std::uint64_t>(got.optMissPct),
                          std::bit_cast<std::uint64_t>(want.optMissPct));
            }
        }
    }
}

TEST(ServerEndToEnd, WarmStoreServesTheSecondSweepWithoutReloading)
{
    Server server(benchServer("tomcatv"));
    ASSERT_TRUE(server.start().ok());
    Client client = mustConnect(server);

    SweepRequest request;
    request.trace = "tomcatv";
    request.lineBytes = 4;
    ASSERT_TRUE(client.sweep(request).ok());

    const auto cold = statsMap(client);
    EXPECT_EQ(cold.at("store-trace-loads"), 1u);
    EXPECT_EQ(cold.at("store-index-builds"), 1u);
    EXPECT_EQ(cold.at("store-trace-misses"), 1u);

    ASSERT_TRUE(client.sweep(request).ok());

    // The acceptance contract: the warm request performs zero trace
    // loads and zero index builds — it is pure cache hits.
    const auto warm = statsMap(client);
    EXPECT_EQ(warm.at("store-trace-loads"), 1u);
    EXPECT_EQ(warm.at("store-index-builds"), 1u);
    EXPECT_GT(warm.at("store-trace-hits"), cold.at("store-trace-hits"));
    EXPECT_GT(warm.at("store-index-hits"), cold.at("store-index-hits"));
    EXPECT_EQ(warm.at("sweeps"), 2u);
}

/** A benchmark's instruction trace written to a DXT2 file and served
 * under @p served_name; removed at scope exit. */
struct ServedFile
{
    std::string path;
    ServedTrace served;

    ServedFile(const std::string &bench, const std::string &served_name)
        : path(::testing::TempDir() + "/dynex_served_" + served_name +
               ".dxt2")
    {
        const Status status = writeTraceFile(
            Workloads::instructions(bench, kRefs), path, TraceFormat::Dxt2);
        EXPECT_TRUE(status.ok()) << status.toString();
        served = {served_name, path, std::filesystem::file_size(path)};
    }
    ~ServedFile() { std::remove(path.c_str()); }
};

/** Expect @p remote to carry exactly @p want's miss rates. */
void
expectSameTable(const SweepResult &remote, const SizeSweepOutcome &want)
{
    EXPECT_TRUE(remote.outcome.failures.empty());
    ASSERT_EQ(remote.outcome.points.size(), want.points.size());
    for (std::size_t s = 0; s < want.points.size(); ++s)
    {
        const auto &got = remote.outcome.points[s];
        EXPECT_EQ(got.sizeBytes, want.points[s].sizeBytes);
        EXPECT_EQ(std::bit_cast<std::uint64_t>(got.dmMissPct),
                  std::bit_cast<std::uint64_t>(want.points[s].dmMissPct));
        EXPECT_EQ(std::bit_cast<std::uint64_t>(got.deMissPct),
                  std::bit_cast<std::uint64_t>(want.points[s].deMissPct));
        EXPECT_EQ(std::bit_cast<std::uint64_t>(got.optMissPct),
                  std::bit_cast<std::uint64_t>(want.points[s].optMissPct));
    }
}

TEST(ServerEndToEnd, FileBackedKernelSweepNeverDecodesTheTrace)
{
    const ServedFile file("espresso", "esp");
    ServerConfig config;
    config.traces.push_back(file.served);
    Server server(config);
    ASSERT_TRUE(server.start().ok());
    Client client = mustConnect(server);

    const Trace local = Workloads::instructions("espresso", kRefs);
    DynamicExclusionConfig sweepConfig;
    sweepConfig.useLastLine = true;
    const SizeSweepOutcome expected = sweepSizes(
        local, paperCacheSizes(), 16, sweepConfig, ReplayEngine::PerLeg);

    SweepRequest sweep;
    sweep.trace = "esp";
    sweep.lineBytes = 16;
    sweep.engine = 2;
    for (int round = 0; round < 2; ++round)
    {
        const auto remote = client.sweep(sweep);
        ASSERT_TRUE(remote.ok()) << remote.status().toString();
        // The trace's own name, as a local sweep of the file reports.
        EXPECT_EQ(remote.value().trace, local.name());
        EXPECT_EQ(remote.value().refs, local.size());
        expectSameTable(remote.value(), expected);
    }
    auto stats = statsMap(client);
    EXPECT_EQ(stats.at("store-trace-loads"), 0u);
    EXPECT_EQ(stats.at("store-index-builds"), 1u);
    EXPECT_EQ(stats.at("store-trace-hits"), 1u);
    EXPECT_GT(stats.at("store-artifact-bytes"), 0u);
    EXPECT_EQ(stats.at("store-resident-bytes"),
              stats.at("store-artifact-bytes"));
    const auto listed = client.list();
    ASSERT_TRUE(listed.ok());
    EXPECT_EQ(listed.value()[0].resident, 1);

    // A replay needs the Trace: it is decoded once, then stays warm.
    ReplayRequest replay;
    replay.trace = "esp";
    replay.model = "dynex";
    const auto geo = CacheGeometry::directMapped(replay.sizeBytes,
                                                 replay.lineBytes);
    const CacheStats want =
        runTrace(*makeCache("dynex", geo, DynamicExclusionConfig{}), local);
    for (int round = 0; round < 2; ++round)
    {
        const auto remote = client.replay(replay);
        ASSERT_TRUE(remote.ok()) << remote.status().toString();
        EXPECT_EQ(remote.value().stats.misses, want.misses);
        EXPECT_EQ(remote.value().stats.hits, want.hits);
    }
    stats = statsMap(client);
    EXPECT_EQ(stats.at("store-trace-loads"), 1u);
    EXPECT_GT(stats.at("store-resident-bytes"),
              stats.at("store-artifact-bytes"));

    // A per-leg sweep replays that warm Trace.
    sweep.engine = 1;
    const auto perLeg = client.sweep(sweep);
    ASSERT_TRUE(perLeg.ok()) << perLeg.status().toString();
    EXPECT_EQ(perLeg.value().trace, local.name());
    expectSameTable(perLeg.value(), expected);
    EXPECT_EQ(statsMap(client).at("store-trace-loads"), 1u);
}

TEST(ServerEndToEnd, ReplayAfterItsArtifactWasEvictedReloads)
{
    const ServedFile first("espresso", "first");
    const ServedFile second("li", "second");
    ServerConfig config;
    config.workers = 2;
    config.traces = {first.served, second.served};
    // Room for about one artifact: each of the two evicts the other.
    config.storeBudgetBytes = kRefs * 12;
    obs::MetricsCollector metrics;
    obs::ScopedMetrics install(&metrics);
    Server server(config);
    ASSERT_TRUE(server.start().ok());
    Client client = mustConnect(server);
    const auto loadedRefs = [&] {
        return metrics.total(obs::Counter::TraceLoadRefs);
    };

    // A cold opt REPLAY decodes the file once: its artifact is packed
    // from the Trace the replay just loaded.
    ReplayRequest replay;
    replay.trace = "first";
    replay.model = "opt";
    replay.lineBytes = 4;
    const auto before = client.replay(replay);
    ASSERT_TRUE(before.ok()) << before.status().toString();
    EXPECT_EQ(loadedRefs(), before.value().refs);

    SweepRequest sweep;
    sweep.trace = "second";
    ASSERT_TRUE(client.sweep(sweep).ok());
    const auto listed = client.list();
    ASSERT_TRUE(listed.ok());
    EXPECT_EQ(listed.value()[0].resident, 0);
    EXPECT_EQ(listed.value()[1].resident, 1);

    const Count loadedBefore = loadedRefs();
    const auto after = client.replay(replay);
    ASSERT_TRUE(after.ok()) << after.status().toString();
    EXPECT_EQ(loadedRefs() - loadedBefore, after.value().refs);
    EXPECT_EQ(after.value().stats.misses, before.value().stats.misses);
    EXPECT_EQ(after.value().stats.bypasses, before.value().stats.bypasses);
    EXPECT_EQ(after.value().refs, before.value().refs);

    // A per-leg sweep of the evicted trace agrees with its kernel one.
    sweep.trace = "first";
    sweep.engine = 1;
    const auto perLeg = client.sweep(sweep);
    ASSERT_TRUE(perLeg.ok()) << perLeg.status().toString();
    sweep.engine = 2;
    const auto kernel = client.sweep(sweep);
    ASSERT_TRUE(kernel.ok()) << kernel.status().toString();
    const auto &perLegPoints = perLeg.value().outcome.points;
    const auto &kernelPoints = kernel.value().outcome.points;
    ASSERT_EQ(perLegPoints.size(), kernelPoints.size());
    for (std::size_t s = 0; s < kernelPoints.size(); ++s)
        EXPECT_EQ(std::bit_cast<std::uint64_t>(perLegPoints[s].optMissPct),
                  std::bit_cast<std::uint64_t>(kernelPoints[s].optMissPct));

    // "first" was decoded once per residency; the sweeps after the
    // second replay found its Trace and artifact warm.
    const auto stats = statsMap(client);
    EXPECT_GE(stats.at("store-evictions"), 2u);
    EXPECT_EQ(stats.at("store-trace-loads"), 2u);
}

TEST(ServerEndToEnd, UploadedSweepFailuresNameTheTraceNotTheStoreKey)
{
    struct HookGuard
    {
        ~HookGuard() { setSweepFaultHook({}); }
    } guard;
    std::mutex labelsMutex;
    std::set<std::string> labels;
    setSweepFaultHook([&](const std::string &bench, std::uint64_t size) {
        {
            std::lock_guard<std::mutex> lock(labelsMutex);
            labels.insert(bench);
        }
        if (size == 4096)
            throw StatusError(Status::internal("injected at 4K"));
    });

    Server server(benchServer("espresso"));
    ASSERT_TRUE(server.start().ok());
    Client client = mustConnect(server);

    Trace uploaded("upl");
    for (const MemRef &ref : Workloads::instructions("li", 5000))
        uploaded.append(ref);
    PutTraceRequest put;
    put.name = "upl";
    put.refs.assign(uploaded.begin(), uploaded.end());
    // Twice: the store key carries the version, the responses do not.
    ASSERT_TRUE(client.put(put).ok());
    ASSERT_TRUE(client.put(put).ok());

    const SizeSweepOutcome local =
        sweepSizes(uploaded, paperCacheSizes(), 4);
    ASSERT_EQ(local.failures.size(), 1u);
    for (const std::uint8_t engine : {1, 2})
    {
        SweepRequest request;
        request.trace = "upl";
        request.engine = engine;
        const auto remote = client.sweep(request);
        ASSERT_TRUE(remote.ok()) << remote.status().toString();
        EXPECT_EQ(remote.value().trace, "upl");
        const auto &failures = remote.value().outcome.failures;
        ASSERT_EQ(failures.size(), 1u);
        EXPECT_EQ(failures[0].bench, local.failures[0].bench);
        EXPECT_EQ(failures[0].bench, "upl");
        EXPECT_EQ(failures[0].sizeBytes, 4096u);
    }
    std::lock_guard<std::mutex> lock(labelsMutex);
    EXPECT_EQ(labels, std::set<std::string>{"upl"});
}

TEST(ServerEndToEnd, FullQueueAnswersBusyInsteadOfQueueingUnbounded)
{
    // One worker, queue capacity one. The worker is parked on the
    // first connection, the second fills the queue, so the third must
    // be turned away with an explicit BUSY frame.
    ServerConfig config = benchServer("gcc");
    config.queueCapacity = 1;
    Server server(config);
    ASSERT_TRUE(server.start().ok());

    Client holder = mustConnect(server);
    ASSERT_TRUE(holder.ping().ok()); // worker now owns this connection
    Client queued = mustConnect(server);
    std::this_thread::sleep_for(std::chrono::milliseconds(300));

    // Read the rejection without sending anything: BUSY is pushed at
    // accept time, before any request.
    const auto rejected = connectTcp(kHost, server.port());
    ASSERT_TRUE(rejected.ok()) << rejected.status().toString();
    bool cleanEof = false;
    const auto reply = readFrame(rejected.value(), cleanEof);
    ASSERT_TRUE(reply.ok()) << reply.status().toString();
    EXPECT_EQ(reply.value().type, MsgType::BusyResponse);
    // The rejection carries a clamped retry-after hint so the client
    // knows to back off instead of hammering the full queue.
    const auto busy = parseBody<BusyInfo>(reply.value().payload);
    ASSERT_TRUE(busy.ok()) << busy.status().toString();
    EXPECT_GE(busy.value().retryAfterMs,
              AdmissionConfig{}.minRetryAfterMs);
    closeSocket(rejected.value());

    // The listener tallies the rejection after sending the frame, so
    // give it a moment on small machines.
    for (int spin = 0; spin < 100 && server.counters().busy == 0; ++spin)
        std::this_thread::sleep_for(std::chrono::milliseconds(10));
    EXPECT_GE(server.counters().busy, 1u);
    EXPECT_GE(server.counters().queueHighWater, 1u);
}

TEST(ServerEndToEnd, ClientSurfacesBusyAsARetryableStatus)
{
    // A hand-rolled acceptor that answers every connection with a
    // legacy empty-payload BUSY but leaves the socket open, so the
    // client's read is determinate.
    std::uint16_t port = 0;
    const auto listener = listenTcp(0, port);
    ASSERT_TRUE(listener.ok()) << listener.status().toString();
    std::atomic<int> accepted{-1};
    std::thread acceptor([&] {
        const int fd = ::accept(listener.value(), nullptr, nullptr);
        if (fd >= 0)
            (void)writeFrame(fd, MsgType::BusyResponse, {});
        accepted.store(fd);
    });

    Client client;
    ASSERT_TRUE(client.connect(kHost, port).ok());
    const auto outcome = client.ping();
    ASSERT_FALSE(outcome.ok());
    EXPECT_EQ(outcome.status().code(), StatusCode::Busy);
    EXPECT_TRUE(isRetryableCode(outcome.status().code()));
    // A legacy frame carries no hint.
    EXPECT_EQ(outcome.status().retryAfterMs(), 0u);
    EXPECT_NE(outcome.status().toString().find("busy"),
              std::string::npos);

    acceptor.join();
    closeSocket(accepted.load());
    closeSocket(listener.value());
}

TEST(ServerEndToEnd, ExpiredDeadlineIsAStructuredDeadlineExceeded)
{
    ServerConfig config = benchServer("spice");
    config.testDelayBeforeExecuteMs = 60;
    Server server(config);
    ASSERT_TRUE(server.start().ok());
    Client client = mustConnect(server);

    SweepRequest request;
    request.trace = "spice";
    request.deadlineMs = 1; // expires during the injected stall
    const auto outcome = client.sweep(request);
    ASSERT_FALSE(outcome.ok());
    EXPECT_EQ(outcome.status().code(), StatusCode::DeadlineExceeded);
    // Deadline expiry is the caller's budget running out, not a
    // transient server condition: the client must not retry it.
    EXPECT_FALSE(isRetryableCode(outcome.status().code()));
    EXPECT_NE(outcome.status().toString().find("deadline"),
              std::string::npos);
    EXPECT_EQ(server.counters().deadlineExpirations, 1u);

    // The connection survives a well-framed failure.
    EXPECT_TRUE(client.ping().ok());
}

TEST(ServerEndToEnd, DeadlineExpiryIsTalliedForEveryRequestType)
{
    // The tally must come from the structured status code, not from
    // matching message text, so replay and sweep both count.
    ServerConfig config = benchServer("eqntott");
    config.testDelayBeforeExecuteMs = 60;
    Server server(config);
    ASSERT_TRUE(server.start().ok());
    Client client = mustConnect(server);

    ReplayRequest replay;
    replay.trace = "eqntott";
    replay.deadlineMs = 1;
    EXPECT_EQ(client.replay(replay).status().code(),
              StatusCode::DeadlineExceeded);
    EXPECT_EQ(server.counters().deadlineExpirations, 1u);

    SweepRequest sweep;
    sweep.trace = "eqntott";
    sweep.deadlineMs = 1;
    EXPECT_EQ(client.sweep(sweep).status().code(),
              StatusCode::DeadlineExceeded);
    EXPECT_EQ(server.counters().deadlineExpirations, 2u);
}

TEST(ServerEndToEnd, HelloIdentifiesTheClientForFairness)
{
    Server server(benchServer("mat300"));
    ASSERT_TRUE(server.start().ok());

    Client named;
    named.setClientId("test-suite");
    ASSERT_TRUE(named.connect(kHost, server.port()).ok());
    EXPECT_TRUE(named.ping().ok());

    const auto rows = statsMap(named);
    EXPECT_EQ(rows.at("helloes"), 1u);
}

TEST(ServerEndToEnd, AdmissionShedsKeepTheConnectionOpenWithAHint)
{
    // A one-token bucket that refills one token per second: the first
    // sweep is admitted, the second is shed as BUSY with a retry-after
    // hint — on the SAME still-open connection — and a retrying client
    // that honors the hint makes forward progress.
    ServerConfig config = benchServer("gcc");
    config.admission.clientBurstNs = 1;
    config.admission.clientRefillNsPerSec = 1;
    Server server(config);
    ASSERT_TRUE(server.start().ok());
    Client client = mustConnect(server);

    SweepRequest request;
    request.trace = "gcc";
    ASSERT_TRUE(client.sweep(request).ok());

    const auto shed = client.sweep(request);
    ASSERT_FALSE(shed.ok());
    EXPECT_EQ(shed.status().code(), StatusCode::Busy);
    EXPECT_GE(shed.status().retryAfterMs(),
              config.admission.minRetryAfterMs);

    // The shed was answered in-band: the connection still works.
    EXPECT_TRUE(client.ping().ok());
    EXPECT_GE(server.counters().busy, 1u);

    // With retries armed the hint is honored and the sweep lands.
    RetryPolicy policy;
    policy.retries = 5;
    policy.backoffMs = 1;
    client.setRetryPolicy(policy);
    const auto retried = client.sweep(request);
    EXPECT_TRUE(retried.ok()) << retried.status().toString();
    EXPECT_GE(client.retryStats().busyResponses, 1u);
}

TEST(ServerEndToEnd, MalformedFrameDrawsAnErrorFrameNotACrash)
{
    Server server(benchServer("doduc"));
    ASSERT_TRUE(server.start().ok());

    const auto fd = connectTcp(kHost, server.port());
    ASSERT_TRUE(fd.ok()) << fd.status().toString();
    const std::string garbage = "this is not a DXP1 frame at all....";
    ASSERT_TRUE(writeAll(fd.value(), garbage.data(), garbage.size()).ok());

    bool cleanEof = false;
    const auto reply = readFrame(fd.value(), cleanEof);
    ASSERT_TRUE(reply.ok()) << reply.status().toString();
    EXPECT_EQ(reply.value().type, MsgType::ErrorResponse);
    const auto error = parseBody<ErrorInfo>(reply.value().payload);
    ASSERT_TRUE(error.ok());
    EXPECT_EQ(statusFromWire(error.value()).code(),
              StatusCode::CorruptInput);
    closeSocket(fd.value());

    // The server is still fully alive afterwards.
    Client client = mustConnect(server);
    EXPECT_TRUE(client.ping().ok());
    EXPECT_GE(server.counters().errors, 1u);
}

TEST(ServerEndToEnd, TruncatedFrameDrawsAnErrorFrame)
{
    Server server(benchServer("doduc"));
    ASSERT_TRUE(server.start().ok());

    const auto fd = connectTcp(kHost, server.port());
    ASSERT_TRUE(fd.ok()) << fd.status().toString();
    // A valid prefix cut mid-payload, then a half-close: the server
    // sees EOF inside the frame.
    const std::string wire = encodeFrame(MsgType::PingRequest, {});
    ASSERT_TRUE(writeAll(fd.value(), wire.data(), wire.size() - 2).ok());
    ::shutdown(fd.value(), SHUT_WR);

    bool cleanEof = false;
    const auto reply = readFrame(fd.value(), cleanEof);
    ASSERT_TRUE(reply.ok()) << reply.status().toString();
    EXPECT_EQ(reply.value().type, MsgType::ErrorResponse);
    closeSocket(fd.value());
}

TEST(ServerEndToEnd, CorruptCrcDrawsAnErrorFrame)
{
    Server server(benchServer("doduc"));
    ASSERT_TRUE(server.start().ok());

    const auto fd = connectTcp(kHost, server.port());
    ASSERT_TRUE(fd.ok()) << fd.status().toString();
    SweepRequest request;
    request.trace = "doduc";
    std::string wire =
        encodeFrame(MsgType::SweepRequest, encodeBody(request));
    wire[kFrameHeaderBytes] ^= 0x10; // corrupt the payload
    ASSERT_TRUE(writeAll(fd.value(), wire.data(), wire.size()).ok());

    bool cleanEof = false;
    const auto reply = readFrame(fd.value(), cleanEof);
    ASSERT_TRUE(reply.ok()) << reply.status().toString();
    EXPECT_EQ(reply.value().type, MsgType::ErrorResponse);
    const auto error = parseBody<ErrorInfo>(reply.value().payload);
    ASSERT_TRUE(error.ok());
    EXPECT_EQ(statusFromWire(error.value()).code(),
              StatusCode::CorruptInput);
    closeSocket(fd.value());
}

TEST(ServerEndToEnd, InvalidRequestsKeepTheConnectionOpen)
{
    Server server(benchServer("nasa7"));
    ASSERT_TRUE(server.start().ok());
    Client client = mustConnect(server);

    SweepRequest unknown;
    unknown.trace = "nonesuch";
    const auto noTrace = client.sweep(unknown);
    ASSERT_FALSE(noTrace.ok());
    EXPECT_EQ(noTrace.status().code(), StatusCode::CorruptInput);

    ReplayRequest badModel;
    badModel.trace = "nasa7";
    badModel.model = "quantum";
    ASSERT_EQ(client.replay(badModel).status().code(),
              StatusCode::CorruptInput);

    ReplayRequest badGeometry;
    badGeometry.trace = "nasa7";
    badGeometry.sizeBytes = 3000; // not a power of two
    ASSERT_EQ(client.replay(badGeometry).status().code(),
              StatusCode::CorruptInput);

    // After three rejected requests the same connection still works.
    EXPECT_TRUE(client.ping().ok());
    EXPECT_EQ(server.counters().errors, 3u);
}

TEST(ServerEndToEnd, RequestsAModelWouldRefuseDrawErrorFramesNotAnAbort)
{
    // Each of these once ended the daemon: a model's constructor
    // asserted on the first three, and the fourth's allocation threw
    // past the handler.
    Server server(benchServer("li"));
    ASSERT_TRUE(server.start().ok());
    Client client = mustConnect(server);

    SweepRequest sweep;
    sweep.trace = "li";
    sweep.stickyMax = 0;
    EXPECT_EQ(client.sweep(sweep).status().code(),
              StatusCode::CorruptInput);

    ReplayRequest unsticky;
    unsticky.trace = "li";
    unsticky.model = "dynex";
    unsticky.stickyMax = 0;
    EXPECT_EQ(client.replay(unsticky).status().code(),
              StatusCode::CorruptInput);

    ReplayRequest tooManyWays;
    tooManyWays.trace = "li";
    tooManyWays.model = "8way";
    tooManyWays.sizeBytes = 16;
    tooManyWays.lineBytes = 16;
    EXPECT_EQ(client.replay(tooManyWays).status().code(),
              StatusCode::CorruptInput);

    // A sanitizer's allocator reports an impossible allocation as a
    // fatal error instead of throwing std::bad_alloc, so the fourth
    // frame runs only in builds without one.
#if !defined(__SANITIZE_ADDRESS__) && !defined(__SANITIZE_THREAD__)
    ReplayRequest huge;
    huge.trace = "li";
    huge.sizeBytes = 1ull << 62;
    EXPECT_EQ(client.replay(huge).status().code(),
              StatusCode::ResourceLimit);
#endif

    // The same daemon, on the same connection, still answers.
    EXPECT_TRUE(client.ping().ok());
}

TEST(ServerEndToEnd, ResponseTypedFrameIsRejectedAsARequest)
{
    Server server(benchServer("fpppp"));
    ASSERT_TRUE(server.start().ok());

    const auto fd = connectTcp(kHost, server.port());
    ASSERT_TRUE(fd.ok()) << fd.status().toString();
    ASSERT_TRUE(writeFrame(fd.value(), MsgType::BusyResponse, {}).ok());

    bool cleanEof = false;
    const auto reply = readFrame(fd.value(), cleanEof);
    ASSERT_TRUE(reply.ok()) << reply.status().toString();
    EXPECT_EQ(reply.value().type, MsgType::ErrorResponse);
    closeSocket(fd.value());
}

TEST(ServerEndToEnd, StopDrainsAndRefusesNewWork)
{
    Server server(benchServer("eqntott"));
    ASSERT_TRUE(server.start().ok());
    Client client = mustConnect(server);
    ASSERT_TRUE(client.ping().ok());

    server.stop();

    // The old connection is closed and a fresh request cannot be
    // served any more (connect may still succeed in the kernel
    // backlog, but no reply ever comes).
    Client late;
    if (late.connect(kHost, server.port()).ok())
    {
        EXPECT_FALSE(late.ping().ok());
    }

    const ServerCounters counters = server.counters();
    EXPECT_GE(counters.requests, 1u);
    EXPECT_GE(counters.connections, 1u);

    server.stop(); // idempotent
}

} // namespace
} // namespace dynex::server

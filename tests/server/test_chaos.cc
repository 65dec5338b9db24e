/**
 * @file
 * Chaos-layer tests: spec parsing and canonical round-trip, per-seam
 * seeded determinism of the injector, and end-to-end fault injection
 * through an in-process Server — forced BUSY sheds, injected
 * TraceStore load and artifact-build failures (never cached, hence
 * retryable), truncated
 * responses, injected delays, and a retrying client whose sweep under
 * chaos is bit-identical to a clean server's.
 */

#include <gtest/gtest.h>

#include <bit>
#include <chrono>
#include <cstdio>
#include <filesystem>
#include <string>
#include <vector>

#include "server/chaos.h"
#include "server/client.h"
#include "server/server.h"
#include "sim/workloads.h"
#include "trace/trace_io.h"

namespace dynex::server
{
namespace
{

constexpr const char *kHost = "127.0.0.1";

ServerConfig
chaosServer(const std::string &bench, const ChaosSpec &spec,
            std::uint64_t seed = 1992)
{
    ServerConfig config;
    config.refs = 20000;
    config.traces.push_back({bench, "", 0});
    config.chaos = spec;
    config.chaosSeed = seed;
    return config;
}

TEST(ChaosSpecText, ParsesEveryKeyAndRoundTrips)
{
    const auto spec = parseChaosSpec(
        "busy=0.25, trunc=0.5,delay=1,delay-ms=20,load-fail=0.125");
    ASSERT_TRUE(spec.ok()) << spec.status().toString();
    EXPECT_DOUBLE_EQ(spec.value().forceBusyProb, 0.25);
    EXPECT_DOUBLE_EQ(spec.value().truncateProb, 0.5);
    EXPECT_DOUBLE_EQ(spec.value().delayProb, 1.0);
    EXPECT_EQ(spec.value().delayMs, 20u);
    EXPECT_DOUBLE_EQ(spec.value().loadFailProb, 0.125);
    EXPECT_TRUE(spec.value().any());

    // The canonical rendering re-parses to the same spec.
    const auto again =
        parseChaosSpec(chaosSpecToString(spec.value()));
    ASSERT_TRUE(again.ok()) << again.status().toString();
    EXPECT_DOUBLE_EQ(again.value().forceBusyProb, 0.25);
    EXPECT_DOUBLE_EQ(again.value().loadFailProb, 0.125);
    EXPECT_EQ(again.value().delayMs, 20u);
}

TEST(ChaosSpecText, EmptySpecIsOffByDefault)
{
    const auto spec = parseChaosSpec("");
    ASSERT_TRUE(spec.ok());
    EXPECT_FALSE(spec.value().any());
}

TEST(ChaosSpecText, RejectsMalformedInput)
{
    for (const char *bad : {
             "busy",               // no '='
             "busy=1.5",           // probability out of range
             "busy=-0.1",          // negative
             "trunc=lots",         // not a number
             "jitter=0.5",         // unknown key
             "delay-ms=999999",    // over the delay cap
         })
    {
        const auto spec = parseChaosSpec(bad);
        ASSERT_FALSE(spec.ok()) << bad;
        EXPECT_EQ(spec.status().code(), StatusCode::CorruptInput)
            << bad;
    }
}

TEST(ChaosInjection, SameSeedSameFaultSequence)
{
    ChaosSpec spec;
    spec.forceBusyProb = 0.5;
    spec.truncateProb = 0.5;
    spec.delayProb = 0.5;
    spec.loadFailProb = 0.5;

    ChaosInjector a(spec, 7);
    ChaosInjector b(spec, 7);
    ChaosInjector other(spec, 8);
    bool anyDiffers = false;
    for (int i = 0; i < 200; ++i)
    {
        EXPECT_EQ(a.shouldForceBusy(), b.shouldForceBusy());
        EXPECT_EQ(a.shouldTruncateResponse(),
                  b.shouldTruncateResponse());
        EXPECT_EQ(a.delayBeforeHandleMs(), b.delayBeforeHandleMs());
        const bool fail = a.shouldFailLoad();
        EXPECT_EQ(fail, b.shouldFailLoad());
        if (fail != other.shouldFailLoad())
            anyDiffers = true;
    }
    // A different seed must produce a different sequence somewhere.
    EXPECT_TRUE(anyDiffers);

    const auto tallies = a.counters();
    EXPECT_EQ(tallies.busy, b.counters().busy);
    EXPECT_GT(tallies.busy, 0u);
    EXPECT_GT(tallies.loadFailures, 0u);
}

TEST(ChaosInjection, SeamsDrawFromIndependentStreams)
{
    // Only the busy seam armed: its decisions must be identical to the
    // busy sequence of a fully-armed injector with the same seed,
    // regardless of how many draws the other seams make there.
    ChaosSpec busyOnly;
    busyOnly.forceBusyProb = 0.5;
    ChaosSpec all;
    all.forceBusyProb = 0.5;
    all.truncateProb = 0.9;
    all.delayProb = 0.9;
    all.loadFailProb = 0.9;

    ChaosInjector lone(busyOnly, 21);
    ChaosInjector noisy(all, 21);
    for (int i = 0; i < 100; ++i)
    {
        // The noisy injector burns draws at every other seam between
        // busy decisions.
        (void)noisy.shouldTruncateResponse();
        (void)noisy.delayBeforeHandleMs();
        (void)noisy.shouldFailLoad();
        EXPECT_EQ(lone.shouldForceBusy(), noisy.shouldForceBusy());
    }
}

TEST(ChaosEndToEnd, CertainForcedBusyShedsEveryRequestWithAHint)
{
    ChaosSpec spec;
    spec.forceBusyProb = 1.0;
    Server server(chaosServer("espresso", spec));
    ASSERT_TRUE(server.start().ok());
    Client client;
    ASSERT_TRUE(client.connect(kHost, server.port()).ok());

    const auto outcome = client.ping();
    ASSERT_FALSE(outcome.ok());
    EXPECT_EQ(outcome.status().code(), StatusCode::Busy);
    EXPECT_GE(outcome.status().retryAfterMs(),
              AdmissionConfig{}.minRetryAfterMs);
    // The shed is in-band: the connection is still usable (for the
    // next BUSY, in this case).
    EXPECT_EQ(client.ping().status().code(), StatusCode::Busy);
}

TEST(ChaosEndToEnd, InjectedLoadFailureIsRetryableAndNeverCached)
{
    ChaosSpec spec;
    spec.loadFailProb = 1.0;
    Server server(chaosServer("espresso", spec));
    ASSERT_TRUE(server.start().ok());
    Client client;
    ASSERT_TRUE(client.connect(kHost, server.port()).ok());

    SweepRequest request;
    request.trace = "espresso";
    const auto first = client.sweep(request);
    ASSERT_FALSE(first.ok());
    EXPECT_EQ(first.status().code(), StatusCode::IoError);
    EXPECT_TRUE(isRetryableCode(first.status().code()));

    // The failure must not be cached as the trace's fate: the second
    // attempt fails on a fresh injected fault, not a poisoned cache,
    // and trivial requests are untouched.
    EXPECT_EQ(client.sweep(request).status().code(),
              StatusCode::IoError);
    EXPECT_TRUE(client.ping().ok());
}

TEST(ChaosEndToEnd, InjectedLoadFailureAlsoFailsFileArtifactBuilds)
{
    // A file-backed kernel sweep packs its artifact without a Trace
    // load; the injected failure must reach that build too.
    const std::string path =
        ::testing::TempDir() + "/dynex_chaos_served.dxt2";
    ASSERT_TRUE(writeTraceFile(Workloads::instructions("li", 5000), path,
                               TraceFormat::Dxt2)
                    .ok());
    ChaosSpec spec;
    spec.loadFailProb = 1.0;
    ServerConfig config = chaosServer("espresso", spec);
    config.traces = {{"filed", path, std::filesystem::file_size(path)}};
    Server server(config);
    ASSERT_TRUE(server.start().ok());
    Client client;
    ASSERT_TRUE(client.connect(kHost, server.port()).ok());

    SweepRequest request;
    request.trace = "filed";
    request.engine = 2;
    EXPECT_EQ(client.sweep(request).status().code(), StatusCode::IoError);
    EXPECT_EQ(client.sweep(request).status().code(), StatusCode::IoError);
    std::uint64_t injected = 0, failures = 0;
    const auto stats = client.stats();
    ASSERT_TRUE(stats.ok()) << stats.status().toString();
    for (const auto &[name, value] : stats.value().counters)
    {
        injected += name == "chaos-load-failures" ? value : 0;
        failures += name == "store-load-failures" ? value : 0;
    }
    EXPECT_EQ(injected, 2u);
    EXPECT_EQ(failures, 2u);
    std::remove(path.c_str());
}

TEST(ChaosEndToEnd, CertainTruncationPoisonsTheConnection)
{
    ChaosSpec spec;
    spec.truncateProb = 1.0;
    Server server(chaosServer("espresso", spec));
    ASSERT_TRUE(server.start().ok());
    Client client;
    ASSERT_TRUE(client.connect(kHost, server.port()).ok());

    // Without retries the cut frame is a terminal transport fault.
    const auto outcome = client.ping();
    ASSERT_FALSE(outcome.ok());
    EXPECT_FALSE(client.connected());
}

TEST(ChaosEndToEnd, InjectedDelayStallsTheRequest)
{
    ChaosSpec spec;
    spec.delayProb = 1.0;
    spec.delayMs = 60;
    Server server(chaosServer("espresso", spec));
    ASSERT_TRUE(server.start().ok());
    Client client;
    ASSERT_TRUE(client.connect(kHost, server.port()).ok());

    const auto start = std::chrono::steady_clock::now();
    ASSERT_TRUE(client.ping().ok());
    const auto elapsed =
        std::chrono::duration_cast<std::chrono::milliseconds>(
            std::chrono::steady_clock::now() - start);
    EXPECT_GE(elapsed.count(), 50);
}

TEST(ChaosEndToEnd, RetryingSweepUnderMixedChaosIsBitIdentical)
{
    // The acceptance contract: chaos may slow a request down, never
    // change its answer.
    ServerConfig cleanConfig = chaosServer("espresso", ChaosSpec{});
    Server clean(cleanConfig);
    ASSERT_TRUE(clean.start().ok());
    Client cleanClient;
    ASSERT_TRUE(cleanClient.connect(kHost, clean.port()).ok());
    SweepRequest request;
    request.trace = "espresso";
    const auto golden = cleanClient.sweep(request);
    ASSERT_TRUE(golden.ok()) << golden.status().toString();

    ChaosSpec spec;
    spec.forceBusyProb = 0.4;
    spec.truncateProb = 0.3;
    spec.loadFailProb = 0.6;
    Server chaotic(chaosServer("espresso", spec, 1992));
    ASSERT_TRUE(chaotic.start().ok());

    Client client;
    client.setClientId("chaos-test");
    RetryPolicy policy;
    policy.retries = 60;
    // Zero base backoff keeps the test fast; sleeps happen only when
    // the server hands back a retry-after hint.
    policy.backoffMs = 0;
    client.setRetryPolicy(policy);
    // The connect itself may be hit by chaos (a truncated hello
    // response); call() reconnects on demand, so that is fine.
    (void)client.connect(kHost, chaotic.port());

    const auto survived = client.sweep(request);
    ASSERT_TRUE(survived.ok()) << survived.status().toString();
    // The chaos must actually have fired on this seed, and the retry
    // loop must have absorbed it.
    EXPECT_GE(client.retryStats().retries, 1u);

    const auto &wantPoints = golden.value().outcome.points;
    const auto &gotPoints = survived.value().outcome.points;
    ASSERT_EQ(gotPoints.size(), wantPoints.size());
    for (std::size_t i = 0; i < wantPoints.size(); ++i)
    {
        const auto &want = wantPoints[i];
        const auto &got = gotPoints[i];
        EXPECT_EQ(got.sizeBytes, want.sizeBytes);
        EXPECT_EQ(std::bit_cast<std::uint64_t>(got.dmMissPct),
                  std::bit_cast<std::uint64_t>(want.dmMissPct));
        EXPECT_EQ(std::bit_cast<std::uint64_t>(got.deMissPct),
                  std::bit_cast<std::uint64_t>(want.deMissPct));
        EXPECT_EQ(std::bit_cast<std::uint64_t>(got.optMissPct),
                  std::bit_cast<std::uint64_t>(want.optMissPct));
    }
}

} // namespace
} // namespace dynex::server

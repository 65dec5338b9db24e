/**
 * @file
 * Google-benchmark microbenchmarks of the DXP1 wire protocol: frame
 * encode/decode round-trip throughput for the payloads the serving
 * path actually moves (ping-sized control frames up to full sweep
 * responses), plus the two halves separately so a regression can be
 * attributed to one side.
 */

#include <benchmark/benchmark.h>

#include <cstdint>
#include <string>

#include "server/protocol.h"
#include "util/logging.h"

namespace
{

using namespace dynex;
using namespace dynex::server;

/** A sweep response shaped like a real one: the paper's 8-point size
 * axis with a couple of failure rows. */
std::string
sweepPayload()
{
    SweepResult result;
    result.trace = "espresso.ifetch";
    result.refs = 1000000;
    for (int p = 0; p < 8; ++p) {
        result.outcome.points.push_back({1024ull << p, 21.5 / (p + 1),
                                         17.25 / (p + 1),
                                         12.125 / (p + 1)});
        result.outcome.ok.push_back(1);
    }
    result.outcome.failures.push_back(
        {"espresso", 4096, "triad",
         Status::internal("injected fault for shape")});
    result.outcome.failures.push_back(
        {"espresso", 8192, "dm",
         Status::resourceLimit("short read at byte 12345")});
    return encodeBody(result);
}

void
BM_FrameRoundTrip(benchmark::State &state)
{
    std::string payload;
    if (state.range(0) > 0)
        payload = sweepPayload();
    for (auto _ : state) {
        const std::string wire =
            encodeFrame(MsgType::SweepResponse, payload);
        Result<Frame> frame = decodeFrame(wire);
        if (!frame.ok())
            DYNEX_FATAL("frame round-trip failed in bench");
        benchmark::DoNotOptimize(frame.value().payload);
    }
    state.SetBytesProcessed(
        static_cast<std::int64_t>(state.iterations()) *
        static_cast<std::int64_t>(kFrameHeaderBytes + payload.size() +
                                  kFrameTrailerBytes));
}
BENCHMARK(BM_FrameRoundTrip)
    ->Arg(0)  // empty control frame (ping/list/stats requests)
    ->Arg(1); // full sweep response

void
BM_FrameEncode(benchmark::State &state)
{
    const std::string payload = sweepPayload();
    for (auto _ : state) {
        std::string wire = encodeFrame(MsgType::SweepResponse, payload);
        benchmark::DoNotOptimize(wire);
    }
    state.SetBytesProcessed(
        static_cast<std::int64_t>(state.iterations()) *
        static_cast<std::int64_t>(kFrameHeaderBytes + payload.size() +
                                  kFrameTrailerBytes));
}
BENCHMARK(BM_FrameEncode);

void
BM_FrameDecode(benchmark::State &state)
{
    const std::string wire =
        encodeFrame(MsgType::SweepResponse, sweepPayload());
    for (auto _ : state) {
        Result<Frame> frame = decodeFrame(wire);
        if (!frame.ok())
            DYNEX_FATAL("frame decode failed in bench");
        benchmark::DoNotOptimize(frame.value().payload);
    }
    state.SetBytesProcessed(
        static_cast<std::int64_t>(state.iterations()) *
        static_cast<std::int64_t>(wire.size()));
}
BENCHMARK(BM_FrameDecode);

/** The full message path a sweep response takes: body encode, frame,
 * decode, body parse — the per-request serialization cost a server
 * worker pays on top of the simulation itself. */
void
BM_SweepResponseRoundTrip(benchmark::State &state)
{
    SweepResult result;
    result.trace = "espresso.ifetch";
    result.refs = 1000000;
    for (int p = 0; p < 8; ++p) {
        result.outcome.points.push_back({1024ull << p, 21.5 / (p + 1),
                                         17.25 / (p + 1),
                                         12.125 / (p + 1)});
        result.outcome.ok.push_back(1);
    }
    for (auto _ : state) {
        const std::string wire = encodeFrame(
            MsgType::SweepResponse, encodeBody(result));
        Result<Frame> frame = decodeFrame(wire);
        if (!frame.ok())
            DYNEX_FATAL("sweep frame decode failed in bench");
        Result<SweepResult> parsed =
            parseBody<SweepResult>(frame.value().payload);
        if (!parsed.ok())
            DYNEX_FATAL("sweep body parse failed in bench");
        benchmark::DoNotOptimize(parsed.value().outcome.points);
    }
}
BENCHMARK(BM_SweepResponseRoundTrip);

} // namespace

BENCHMARK_MAIN();

/**
 * @file
 * Deterministic corruption fuzzer over the DXP1 frame decoder. It
 * reuses the trace fuzzer's mutation engine (byte-flip bursts,
 * truncations, garbage extensions) on a corpus of valid frames — one
 * per message type, with representative bodies — and feeds every
 * mutant to decodeFrame plus the matching body parser. The contract
 * matches the trace readers': every mutation yields a clean success
 * or a structured, non-Internal error; never a crash, hang, or
 * unbounded allocation. Shared between the gtest smoke test and the
 * standalone dynex_fuzz_frames binary.
 */

#ifndef DYNEX_TESTS_ROBUSTNESS_FRAME_FUZZER_H
#define DYNEX_TESTS_ROBUSTNESS_FRAME_FUZZER_H

#include <cstdint>
#include <string>
#include <vector>

#include "server/protocol.h"
#include "util/rng.h"

#include "corruption_fuzzer.h"

namespace dynex::test
{

namespace frame_fuzz_detail
{

using namespace dynex::server;

/** Decode a frame and, when framing survives, its body too: a flipped
 * payload bit that still passes CRC (vanishingly rare) must still
 * parse structurally. */
inline Status
parseFrameAndBody(const std::string &bytes)
{
    Result<Frame> frame = decodeFrame(bytes);
    if (!frame.ok())
        return frame.status();
    switch (frame.value().type) {
    case MsgType::PingResponse:
        return parsePingResponse(frame.value().payload).status();
    case MsgType::ListResponse:
        return parseListResponse(frame.value().payload).status();
    case MsgType::ReplayRequest:
        return parseReplayRequest(frame.value().payload).status();
    case MsgType::ReplayResponse:
        return parseReplayResponse(frame.value().payload).status();
    case MsgType::SweepRequest:
        return parseSweepRequest(frame.value().payload).status();
    case MsgType::SweepResponse:
        return parseSweepResponse(frame.value().payload).status();
    case MsgType::StatsResponse:
        return parseStatsResponse(frame.value().payload).status();
    case MsgType::ErrorResponse:
        return parseErrorResponse(frame.value().payload).status();
    case MsgType::HelloRequest:
        return parseHelloRequest(frame.value().payload).status();
    case MsgType::BusyResponse:
        return parseBusyResponse(frame.value().payload).status();
    default:
        return Status();
    }
}

/** One valid frame per message type, with non-trivial bodies. */
inline std::vector<std::string>
buildFrameCorpus()
{
    std::vector<std::string> corpus;
    corpus.push_back(encodeFrame(MsgType::PingRequest, {}));
    corpus.push_back(encodeFrame(MsgType::ListRequest, {}));
    corpus.push_back(encodeFrame(MsgType::StatsRequest, {}));

    PingInfo ping;
    ping.version = "1.0.0 (fuzz)";
    ping.traces = 10;
    corpus.push_back(
        encodeFrame(MsgType::PingResponse, encodePingResponse(ping)));

    std::vector<TraceListEntry> listing;
    listing.push_back({"espresso", 0, 1});
    listing.push_back({"mat300.dxt", 123456, 0});
    corpus.push_back(
        encodeFrame(MsgType::ListResponse, encodeListResponse(listing)));

    ReplayRequest replay;
    replay.trace = "espresso";
    replay.model = "dynex";
    replay.sizeBytes = 32 * 1024;
    replay.lineBytes = 16;
    replay.deadlineMs = 250;
    corpus.push_back(encodeFrame(MsgType::ReplayRequest,
                                 encodeReplayRequest(replay)));

    SweepRequest sweep;
    sweep.trace = "mat300";
    sweep.lineBytes = 4;
    sweep.engine = 1;
    corpus.push_back(
        encodeFrame(MsgType::SweepRequest, encodeSweepRequest(sweep)));

    SweepResult result;
    result.trace = "mat300";
    result.refs = 30000;
    for (int p = 0; p < 8; ++p) {
        result.outcome.points.push_back(
            {1024ull << p, 21.5 + p, 17.25 - p, 12.125 + p});
        result.outcome.ok.push_back(1);
    }
    result.outcome.failures.push_back(
        {"mat300", 4096, "triad", Status::internal("injected fault")});
    corpus.push_back(encodeFrame(MsgType::SweepResponse,
                                 encodeSweepResponse(result)));

    StatsResult stats;
    stats.counters.push_back({"requests", 42});
    stats.counters.push_back({"store-hits", 7});
    corpus.push_back(encodeFrame(MsgType::StatsResponse,
                                 encodeStatsResponse(stats)));

    corpus.push_back(encodeFrame(
        MsgType::ErrorResponse,
        encodeErrorResponse(Status::corruptInput("bad frame"))));
    corpus.push_back(encodeFrame(MsgType::BusyResponse, {}));
    corpus.push_back(encodeFrame(MsgType::BusyResponse,
                                 encodeBusyResponse({750})));

    HelloInfo hello;
    hello.clientId = "loadgen-3";
    corpus.push_back(
        encodeFrame(MsgType::HelloRequest, encodeHelloRequest(hello)));
    return corpus;
}

} // namespace frame_fuzz_detail

/**
 * Run @p iterations seeded mutations across the DXP1 frame corpus,
 * round-robin over the message types. Reuses FuzzReport and the
 * mutation engine from the trace corruption fuzzer.
 */
inline FuzzReport
runFrameFuzzer(std::uint64_t seed, std::uint64_t iterations)
{
    const auto corpus = frame_fuzz_detail::buildFrameCorpus();
    FuzzReport report;
    Rng rng(seed);
    for (std::uint64_t i = 0; i < iterations; ++i) {
        std::string mutant = corpus[i % corpus.size()];
        fuzz_detail::mutate(mutant, rng);
        const Status status =
            frame_fuzz_detail::parseFrameAndBody(mutant);
        ++report.iterations;
        if (status.ok()) {
            ++report.cleanSuccesses;
        } else if (status.code() != StatusCode::Internal) {
            ++report.structuredErrors;
        } else {
            report.violations.push_back(
                "dxp1 seed=" + std::to_string(seed) +
                " iter=" + std::to_string(i) + ": " +
                status.toString());
        }
    }
    return report;
}

} // namespace dynex::test

#endif // DYNEX_TESTS_ROBUSTNESS_FRAME_FUZZER_H

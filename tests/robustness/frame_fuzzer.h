/**
 * @file
 * Deterministic corruption fuzzer over the DXP1 frame decoder and the
 * message-body parsers. It reuses the trace fuzzer's mutation engine
 * (byte-flip bursts, truncations, garbage extensions) on a corpus of
 * valid bodies — one or more per message type — in one of two modes:
 *
 *  - Frames: mutate the whole encoded frame and feed it to decodeFrame
 *    plus the matching body parser. Every payload byte sits under the
 *    trailer CRC, so almost every mutant stops at the frame layer.
 *  - Bodies: mutate the body, frame it again with valid CRCs, and feed
 *    that, so each mutant reaches its body parser.
 *
 * The body parser is picked through visitMsgType, the one list of
 * message types, so no body can be skipped. The contract matches the
 * trace readers': every mutation yields a clean success or a
 * structured error — CorruptInput or ResourceLimit — never a crash,
 * hang, or unbounded allocation. Shared between the gtest smoke test
 * and the standalone dynex_fuzz_frames binary.
 */

#ifndef DYNEX_TESTS_ROBUSTNESS_FRAME_FUZZER_H
#define DYNEX_TESTS_ROBUSTNESS_FRAME_FUZZER_H

#include <cstdint>
#include <string>
#include <type_traits>
#include <utility>
#include <vector>

#include "server/protocol.h"
#include "util/rng.h"

#include "corruption_fuzzer.h"

namespace dynex::test
{

/** What the frame fuzzer mutates. */
enum class FrameFuzzMode
{
    Frames, ///< the encoded frame: header, payload and CRCs
    Bodies, ///< the body, framed again with valid CRCs
};

/** A FuzzReport that also counts the errors body parsers returned. */
struct FrameFuzzReport : FuzzReport
{
    std::uint64_t bodyErrors = 0; ///< framed fine, body parser failed
};

namespace frame_fuzz_detail
{

using namespace dynex::server;

/** Parse @p payload as the body a @p type frame carries. */
inline Status
parseBodyOf(MsgType type, std::string_view payload)
{
    return visitMsgType(type, [&](const char *, auto tag) -> Status {
        using Body = typename decltype(tag)::type;
        if constexpr (std::is_void_v<Body>)
            return Status::corruptInput("unlisted message type");
        else
            return parseBody<Body>(payload).status();
    });
}

/** One valid body per message type (two for BUSY and SWEEP), as
 * (type, body bytes). */
inline std::vector<std::pair<MsgType, std::string>>
buildBodyCorpus()
{
    std::vector<std::pair<MsgType, std::string>> corpus;
    const auto add = [&](MsgType type, const auto &body) {
        corpus.emplace_back(type, encodeBody(body));
    };
    add(MsgType::PingRequest, NoBody{});
    add(MsgType::ListRequest, NoBody{});
    add(MsgType::StatsRequest, NoBody{});
    add(MsgType::HelloResponse, NoBody{});

    add(MsgType::PingResponse, PingInfo{"1.0.0 (fuzz)", 10});
    add(MsgType::ListResponse,
        std::vector<TraceListEntry>{{"espresso", 0, 1},
                                    {"mat300.dxt", 123456, 0}});

    ReplayRequest replay;
    replay.trace = "espresso";
    replay.model = "dynex";
    replay.sizeBytes = 32 * 1024;
    replay.lineBytes = 16;
    replay.deadlineMs = 250;
    add(MsgType::ReplayRequest, replay);

    ReplayResult replayed;
    replayed.model = "dynex";
    replayed.refs = 30000;
    replayed.stats.accesses = 30000;
    replayed.stats.hits = 27000;
    replayed.stats.misses = 3000;
    add(MsgType::ReplayResponse, replayed);

    SweepRequest sweep;
    sweep.trace = "mat300";
    sweep.lineBytes = 4;
    sweep.engine = 1;
    add(MsgType::SweepRequest, sweep);
    sweep.sizes = {1024, 2048, 4096};
    add(MsgType::SweepRequest, sweep);

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
    add(MsgType::SweepResponse, result);

    PutTraceRequest put;
    put.name = "campaign:gcc";
    put.refs = {ifetch(0x1000), load(0x2000, 8), store(0xffff'0000, 1)};
    add(MsgType::PutRequest, put);
    add(MsgType::PutResponse, PutTraceResult{"campaign:gcc", 3});

    add(MsgType::StatsResponse,
        StatsResult{{{"requests", 42}, {"store-hits", 7}}});
    add(MsgType::ErrorResponse, Status::corruptInput("bad frame"));
    corpus.emplace_back(MsgType::BusyResponse, std::string());
    add(MsgType::BusyResponse, BusyInfo{750});
    add(MsgType::HelloRequest, HelloInfo{"loadgen-3"});
    return corpus;
}

} // namespace frame_fuzz_detail

/**
 * Run @p iterations seeded mutations across the DXP1 body corpus,
 * round-robin over its entries, in @p mode. Reuses the mutation
 * engine from the trace corruption fuzzer.
 */
inline FrameFuzzReport
runFrameFuzzer(std::uint64_t seed, std::uint64_t iterations,
               FrameFuzzMode mode = FrameFuzzMode::Frames)
{
    using namespace dynex::server;
    const auto corpus = frame_fuzz_detail::buildBodyCorpus();
    FrameFuzzReport report;
    Rng rng(seed);
    for (std::uint64_t i = 0; i < iterations; ++i) {
        const auto &[type, body] = corpus[i % corpus.size()];
        std::string mutant;
        if (mode == FrameFuzzMode::Frames) {
            mutant = encodeFrame(type, body);
            fuzz_detail::mutate(mutant, rng);
        } else {
            std::string mutated = body;
            fuzz_detail::mutate(mutated, rng);
            mutant = encodeFrame(type, mutated);
        }
        ++report.iterations;
        Result<Frame> frame = decodeFrame(mutant);
        Status status = frame.status();
        bool bodyFailed = false;
        if (frame.ok()) {
            status = frame_fuzz_detail::parseBodyOf(frame.value().type,
                                                    frame.value().payload);
            bodyFailed = !status.ok();
        }
        if (status.ok()) {
            ++report.cleanSuccesses;
        } else if (status.code() == StatusCode::CorruptInput ||
                   status.code() == StatusCode::ResourceLimit) {
            ++report.structuredErrors;
            report.bodyErrors += bodyFailed ? 1 : 0;
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

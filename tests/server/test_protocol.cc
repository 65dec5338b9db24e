/**
 * @file
 * DXP1 protocol tests: frame round-trips for every message type
 * (doubles bit-exact), rejection of every framing violation (bad
 * magic, nonzero flags, corrupt header CRC, corrupt payload CRC,
 * truncation, trailing garbage, over-cap payload lengths), wire-body
 * bounds checks, every body's bytes pinned, and a short deterministic
 * run of the frame fuzzer over frames and over bodies.
 */

#include <gtest/gtest.h>

#include <bit>
#include <cstring>
#include <string>

#include "server/protocol.h"
#include "sim/sweep.h"
#include "util/crc32.h"

#include "../robustness/frame_fuzzer.h"

namespace dynex::server
{
namespace
{

Frame
mustDecode(const std::string &bytes)
{
    Result<Frame> frame = decodeFrame(bytes);
    EXPECT_TRUE(frame.ok()) << frame.status().toString();
    return frame.ok() ? std::move(frame.value()) : Frame{};
}

TEST(Dxp1Frame, EmptyPayloadRoundTrips)
{
    const std::string wire = encodeFrame(MsgType::PingRequest, {});
    EXPECT_EQ(wire.size(), kFrameHeaderBytes + kFrameTrailerBytes);
    const Frame frame = mustDecode(wire);
    EXPECT_EQ(frame.type, MsgType::PingRequest);
    EXPECT_TRUE(frame.payload.empty());
}

TEST(Dxp1Frame, PayloadRoundTripsIncludingNulBytes)
{
    std::string payload = "abc";
    payload.push_back('\0');
    payload += "def";
    const Frame frame =
        mustDecode(encodeFrame(MsgType::SweepRequest, payload));
    EXPECT_EQ(frame.type, MsgType::SweepRequest);
    EXPECT_EQ(frame.payload, payload);
}

TEST(Dxp1Frame, RejectsBadMagic)
{
    std::string wire = encodeFrame(MsgType::PingRequest, {});
    wire[0] = 'X';
    const auto decoded = decodeFrame(wire);
    ASSERT_FALSE(decoded.ok());
    EXPECT_EQ(decoded.status().code(), StatusCode::CorruptInput);
}

TEST(Dxp1Frame, RejectsHeaderCorruption)
{
    // Flip one bit in the length field: the header CRC must catch it
    // before the bogus length is trusted.
    std::string wire = encodeFrame(MsgType::ListRequest, "payload");
    wire[8] = static_cast<char>(wire[8] ^ 0x40);
    const auto decoded = decodeFrame(wire);
    ASSERT_FALSE(decoded.ok());
    EXPECT_EQ(decoded.status().code(), StatusCode::CorruptInput);
}

TEST(Dxp1Frame, RejectsPayloadCorruption)
{
    std::string wire = encodeFrame(MsgType::ListRequest, "payload");
    wire[kFrameHeaderBytes + 2] =
        static_cast<char>(wire[kFrameHeaderBytes + 2] ^ 0x01);
    const auto decoded = decodeFrame(wire);
    ASSERT_FALSE(decoded.ok());
    EXPECT_EQ(decoded.status().code(), StatusCode::CorruptInput);
}

TEST(Dxp1Frame, RejectsEveryTruncationLength)
{
    const std::string wire =
        encodeFrame(MsgType::ReplayRequest, "0123456789");
    for (std::size_t keep = 0; keep < wire.size(); ++keep)
    {
        const auto decoded = decodeFrame(wire.substr(0, keep));
        ASSERT_FALSE(decoded.ok()) << "kept " << keep << " bytes";
        EXPECT_EQ(decoded.status().code(), StatusCode::CorruptInput);
    }
}

TEST(Dxp1Frame, RejectsTrailingGarbage)
{
    std::string wire = encodeFrame(MsgType::PingRequest, {});
    wire += "extra";
    const auto decoded = decodeFrame(wire);
    ASSERT_FALSE(decoded.ok());
    EXPECT_EQ(decoded.status().code(), StatusCode::CorruptInput);
}

TEST(Dxp1Frame, RejectsOverCapLengthWithValidCrcAsResourceLimit)
{
    // Forge a header whose CRC is *valid* but whose length is over the
    // cap: the decoder must report ResourceLimit without attempting the
    // 4GB read.
    std::string header(kFrameHeaderBytes, '\0');
    std::memcpy(header.data(), kFrameMagic, 4);
    const std::uint16_t type =
        static_cast<std::uint16_t>(MsgType::SweepRequest);
    std::memcpy(header.data() + 4, &type, 2);
    const std::uint32_t hugeLen = kMaxPayloadBytes + 1;
    std::memcpy(header.data() + 8, &hugeLen, 4);
    const std::uint32_t crc = crc32Final(
        crc32Update(crc32Init(), header.data(), 12));
    std::memcpy(header.data() + 12, &crc, 4);

    const auto decoded = decodeFrameHeader(header.data());
    ASSERT_FALSE(decoded.ok());
    EXPECT_EQ(decoded.status().code(), StatusCode::ResourceLimit);
}

TEST(Dxp1Frame, RejectsUnknownMessageType)
{
    std::string header(kFrameHeaderBytes, '\0');
    std::memcpy(header.data(), kFrameMagic, 4);
    const std::uint16_t type = 0x7777;
    std::memcpy(header.data() + 4, &type, 2);
    const std::uint32_t crc = crc32Final(
        crc32Update(crc32Init(), header.data(), 12));
    std::memcpy(header.data() + 12, &crc, 4);

    const auto decoded = decodeFrameHeader(header.data());
    ASSERT_FALSE(decoded.ok());
    EXPECT_EQ(decoded.status().code(), StatusCode::CorruptInput);
}

/** Forge a header with a valid CRC from raw field values. */
std::string
forgeHeader(std::uint16_t type, std::uint16_t flags,
            std::uint32_t payload_len)
{
    std::string header(kFrameHeaderBytes, '\0');
    std::memcpy(header.data(), kFrameMagic, 4);
    std::memcpy(header.data() + 4, &type, 2);
    std::memcpy(header.data() + 6, &flags, 2);
    std::memcpy(header.data() + 8, &payload_len, 4);
    const std::uint32_t crc =
        crc32Final(crc32Update(crc32Init(), header.data(), 12));
    std::memcpy(header.data() + 12, &crc, 4);
    return header;
}

TEST(Dxp1TraceId, RoundTripsThroughTheFlaggedPrefix)
{
    const std::string payload = "sweep body";
    const std::uint64_t traceId = 0x1122334455667788ull;
    const std::string wire =
        encodeFrame(MsgType::SweepRequest, payload, traceId);
    // The prefix is part of the payload: 8 extra bytes on the wire.
    EXPECT_EQ(wire.size(), kFrameHeaderBytes + kTraceIdBytes +
                               payload.size() + kFrameTrailerBytes);
    const Frame frame = mustDecode(wire);
    EXPECT_EQ(frame.type, MsgType::SweepRequest);
    EXPECT_EQ(frame.traceId, traceId);
    // Body parsers never see the prefix.
    EXPECT_EQ(frame.payload, payload);
}

TEST(Dxp1TraceId, ZeroIdEmitsTheLegacyLayoutByteForByte)
{
    EXPECT_EQ(encodeFrame(MsgType::PingRequest, "p", 0),
              encodeFrame(MsgType::PingRequest, "p"));
    const Frame frame = mustDecode(encodeFrame(MsgType::PingRequest, "p"));
    EXPECT_EQ(frame.traceId, 0u);
}

TEST(Dxp1TraceId, TraceFlagWithShortPayloadIsCorruptInput)
{
    // A flagged frame whose payload cannot hold the 8-byte id must be
    // rejected at the header so readers can always slice the prefix.
    const std::string header = forgeHeader(
        static_cast<std::uint16_t>(MsgType::PingRequest),
        kFrameFlagTraceId, kTraceIdBytes - 1);
    const auto decoded = decodeFrameHeader(header.data());
    ASSERT_FALSE(decoded.ok());
    EXPECT_EQ(decoded.status().code(), StatusCode::CorruptInput);
}

TEST(Dxp1TraceId, UnknownFlagBitsStayCorruptInput)
{
    for (const std::uint16_t flags : {0x0002, 0x8000, 0x0003})
    {
        const std::string header = forgeHeader(
            static_cast<std::uint16_t>(MsgType::PingRequest), flags,
            64);
        const auto decoded = decodeFrameHeader(header.data());
        ASSERT_FALSE(decoded.ok()) << "flags 0x" << std::hex << flags;
        EXPECT_EQ(decoded.status().code(), StatusCode::CorruptInput);
    }
}

TEST(Dxp1Wire, StringOverCapIsResourceLimit)
{
    WireWriter writer;
    writer.u32(kMaxWireStringBytes + 1);
    writer.u64(0);
    WireReader reader(writer.bytes());
    std::string out;
    reader.str(out);
    const Status status = reader.finish();
    ASSERT_FALSE(status.ok());
    EXPECT_EQ(status.code(), StatusCode::ResourceLimit);
}

TEST(Dxp1Wire, ReadPastEndIsCorruptInput)
{
    WireWriter writer;
    writer.u16(7);
    WireReader reader(writer.bytes());
    std::uint64_t wide = 0;
    reader.u64(wide);
    const Status status = reader.finish();
    ASSERT_FALSE(status.ok());
    EXPECT_EQ(status.code(), StatusCode::CorruptInput);
}

TEST(Dxp1Wire, TheFirstFailureSticks)
{
    // A truncated read fails; the reads after it leave their fields
    // untouched, and finish() reports the first failure, not a later
    // one or the unconsumed bytes.
    WireWriter writer;
    writer.u16(7);
    WireReader reader(writer.bytes());
    std::uint64_t wide = 42;
    std::uint8_t narrow = 9;
    reader.u64(wide);
    reader.u8(narrow);
    reader.check(false, [] { return std::string("later check"); });
    EXPECT_EQ(wide, 42u);
    EXPECT_EQ(narrow, 9u);
    const Status status = reader.finish();
    ASSERT_FALSE(status.ok());
    EXPECT_EQ(status.message(), "DXP1: truncated u64");
}

TEST(Dxp1Bodies, PingRoundTrips)
{
    PingInfo info;
    info.version = "9.9.9-test";
    info.traces = 17;
    const auto parsed = parseBody<PingInfo>(encodeBody(info));
    ASSERT_TRUE(parsed.ok()) << parsed.status().toString();
    EXPECT_EQ(parsed.value().version, info.version);
    EXPECT_EQ(parsed.value().traces, info.traces);
}

TEST(Dxp1Bodies, ListRoundTrips)
{
    std::vector<TraceListEntry> listing;
    listing.push_back({"espresso", 0, 1});
    listing.push_back({"trace.dxt", 987654321, 0});
    const auto parsed =
        parseBody<std::vector<TraceListEntry>>(encodeBody(listing));
    ASSERT_TRUE(parsed.ok()) << parsed.status().toString();
    ASSERT_EQ(parsed.value().size(), listing.size());
    for (std::size_t i = 0; i < listing.size(); ++i)
    {
        EXPECT_EQ(parsed.value()[i].name, listing[i].name);
        EXPECT_EQ(parsed.value()[i].fileBytes, listing[i].fileBytes);
        EXPECT_EQ(parsed.value()[i].resident, listing[i].resident);
    }
}

TEST(Dxp1Bodies, ReplayRequestRoundTrips)
{
    ReplayRequest request;
    request.trace = "gcc";
    request.model = "opt";
    request.sizeBytes = 1ull << 20;
    request.lineBytes = 64;
    request.stickyMax = 3;
    request.lastLine = 1;
    request.victimEntries = 8;
    request.deadlineMs = 1500;
    const auto parsed =
        parseBody<ReplayRequest>(encodeBody(request));
    ASSERT_TRUE(parsed.ok()) << parsed.status().toString();
    EXPECT_EQ(parsed.value().trace, request.trace);
    EXPECT_EQ(parsed.value().model, request.model);
    EXPECT_EQ(parsed.value().sizeBytes, request.sizeBytes);
    EXPECT_EQ(parsed.value().lineBytes, request.lineBytes);
    EXPECT_EQ(parsed.value().stickyMax, request.stickyMax);
    EXPECT_EQ(parsed.value().lastLine, request.lastLine);
    EXPECT_EQ(parsed.value().victimEntries, request.victimEntries);
    EXPECT_EQ(parsed.value().deadlineMs, request.deadlineMs);
}

TEST(Dxp1Bodies, SweepRequestAcceptsEveryEngineAndRejectsUnknown)
{
    SweepRequest request;
    request.trace = "espresso";
    request.lineBytes = 16;
    request.stickyMax = 2;
    request.deadlineMs = 250;
    for (const std::uint8_t engine : {0, 1, 2})
    {
        request.engine = engine;
        const auto parsed =
            parseBody<SweepRequest>(encodeBody(request));
        ASSERT_TRUE(parsed.ok()) << parsed.status().toString();
        EXPECT_EQ(parsed.value().trace, request.trace);
        EXPECT_EQ(parsed.value().engine, engine);
    }
    request.engine = 3;
    const auto rejected =
        parseBody<SweepRequest>(encodeBody(request));
    ASSERT_FALSE(rejected.ok());
    EXPECT_EQ(rejected.status().code(), StatusCode::CorruptInput);
}

TEST(Dxp1Bodies, SweepRequestCustomAxisRoundTrips)
{
    SweepRequest request;
    request.trace = "espresso";
    request.lineBytes = 16;
    request.sizes = {1024, 2048, 4096};
    const auto parsed = parseBody<SweepRequest>(encodeBody(request));
    ASSERT_TRUE(parsed.ok()) << parsed.status().toString();
    EXPECT_EQ(parsed.value().sizes, request.sizes);
}

TEST(Dxp1Bodies, SweepRequestWithoutAxisKeepsTheLegacyLayout)
{
    // An empty axis must encode byte-identically to the pre-axis
    // layout (no trailing count), so old servers still parse it.
    SweepRequest request;
    request.trace = "espresso";
    request.lineBytes = 16;
    const std::string legacy = encodeBody(request);
    request.sizes = {1024};
    const std::string custom = encodeBody(request);
    EXPECT_EQ(custom.size(), legacy.size() + 4 + 8);
    const auto parsed = parseBody<SweepRequest>(legacy);
    ASSERT_TRUE(parsed.ok()) << parsed.status().toString();
    EXPECT_TRUE(parsed.value().sizes.empty());
}

TEST(Dxp1Bodies, SweepRequestAxisOverCapIsResourceLimit)
{
    SweepRequest request;
    request.trace = "espresso";
    request.sizes.assign(kMaxSweepAxisSizes + 1, 1024);
    const auto parsed = parseBody<SweepRequest>(encodeBody(request));
    ASSERT_FALSE(parsed.ok());
    EXPECT_EQ(parsed.status().code(), StatusCode::ResourceLimit);
}

TEST(Dxp1Bodies, PutRequestRoundTrips)
{
    PutTraceRequest request;
    request.name = "campaign:gcc";
    request.refs = {ifetch(0x1000), load(0x2000, 8),
                    store(0xffff'ffff'0000ull, 1)};
    const auto parsed = parseBody<PutTraceRequest>(encodeBody(request));
    ASSERT_TRUE(parsed.ok()) << parsed.status().toString();
    EXPECT_EQ(parsed.value().name, request.name);
    ASSERT_EQ(parsed.value().refs.size(), request.refs.size());
    for (std::size_t i = 0; i < request.refs.size(); ++i) {
        EXPECT_EQ(parsed.value().refs[i].addr, request.refs[i].addr);
        EXPECT_EQ(parsed.value().refs[i].type, request.refs[i].type);
        EXPECT_EQ(parsed.value().refs[i].size, request.refs[i].size);
    }
}

TEST(Dxp1Bodies, PutRequestRejectsAnEmptyName)
{
    PutTraceRequest request;
    request.refs = {ifetch(0x1000)};
    const auto parsed = parseBody<PutTraceRequest>(encodeBody(request));
    ASSERT_FALSE(parsed.ok());
    EXPECT_EQ(parsed.status().code(), StatusCode::CorruptInput);
}

TEST(Dxp1Bodies, PutRequestRejectsAnUnknownReferenceKind)
{
    PutTraceRequest request;
    request.name = "x";
    request.refs = {ifetch(0x1000)};
    std::string payload = encodeBody(request);
    // Layout: str name (u32 + bytes), u64 count, then 10-byte records
    // { addr u64, kind u8, size u8 }; corrupt the first kind byte.
    const std::size_t kindAt = 4 + request.name.size() + 8 + 8;
    ASSERT_LT(kindAt, payload.size());
    payload[kindAt] = 7;
    const auto parsed = parseBody<PutTraceRequest>(payload);
    ASSERT_FALSE(parsed.ok());
    EXPECT_EQ(parsed.status().code(), StatusCode::CorruptInput);
}

TEST(Dxp1Bodies, PutRequestCountOverCapIsResourceLimit)
{
    PutTraceRequest request;
    request.name = "x";
    request.refs = {ifetch(0x1000)};
    std::string payload = encodeBody(request);
    // Rewrite the u64 count (after the name) to an absurd value; the
    // cap check must fire before any allocation.
    const std::size_t countAt = 4 + request.name.size();
    for (std::size_t i = 0; i < 8; ++i)
        payload[countAt + i] = static_cast<char>(0xff);
    const auto parsed = parseBody<PutTraceRequest>(payload);
    ASSERT_FALSE(parsed.ok());
    EXPECT_EQ(parsed.status().code(), StatusCode::ResourceLimit);
}

TEST(Dxp1Bodies, PutResponseRoundTrips)
{
    PutTraceResult result;
    result.name = "campaign:gcc";
    result.refs = 123456;
    const auto parsed = parseBody<PutTraceResult>(encodeBody(result));
    ASSERT_TRUE(parsed.ok()) << parsed.status().toString();
    EXPECT_EQ(parsed.value().name, result.name);
    EXPECT_EQ(parsed.value().refs, result.refs);
}

TEST(Dxp1Bodies, ReplayResponseRoundTrips)
{
    ReplayResult result;
    result.model = "dynex";
    result.refs = 1000000;
    result.stats.accesses = 1000000;
    result.stats.hits = 800000;
    result.stats.misses = 200000;
    result.stats.coldMisses = 1024;
    result.stats.fills = 150000;
    result.stats.bypasses = 50000;
    result.stats.evictions = 140000;
    const auto parsed =
        parseBody<ReplayResult>(encodeBody(result));
    ASSERT_TRUE(parsed.ok()) << parsed.status().toString();
    EXPECT_EQ(parsed.value().model, result.model);
    EXPECT_EQ(parsed.value().refs, result.refs);
    EXPECT_EQ(parsed.value().stats.accesses, result.stats.accesses);
    EXPECT_EQ(parsed.value().stats.hits, result.stats.hits);
    EXPECT_EQ(parsed.value().stats.misses, result.stats.misses);
    EXPECT_EQ(parsed.value().stats.coldMisses, result.stats.coldMisses);
    EXPECT_EQ(parsed.value().stats.fills, result.stats.fills);
    EXPECT_EQ(parsed.value().stats.bypasses, result.stats.bypasses);
    EXPECT_EQ(parsed.value().stats.evictions, result.stats.evictions);
}

TEST(Dxp1Bodies, SweepResponseDoublesAreBitExact)
{
    SweepResult result;
    result.trace = "tomcatv";
    result.refs = 3'000'000;
    // Values chosen to have non-terminating binary expansions: a
    // text-formatting round-trip would lose bits, the wire must not.
    SizeSweepOutcome &sent = result.outcome;
    sent.points.push_back({2048, 100.0 / 3.0, 10.0 / 7.0, 1.0 / 9.0});
    sent.ok.push_back(1);
    sent.points.push_back({1u << 20, 0.0, -0.0, 5e-324});
    sent.ok.push_back(0);
    sent.failures.push_back(
        {"tomcatv", 4096, "dm", Status::internal("injected")});

    const auto parsed =
        parseBody<SweepResult>(encodeBody(result));
    ASSERT_TRUE(parsed.ok()) << parsed.status().toString();
    const SizeSweepOutcome &got = parsed.value().outcome;
    ASSERT_EQ(got.points.size(), sent.points.size());
    ASSERT_EQ(got.ok.size(), sent.ok.size());
    for (std::size_t i = 0; i < sent.points.size(); ++i)
    {
        EXPECT_EQ(got.points[i].sizeBytes, sent.points[i].sizeBytes);
        EXPECT_EQ(got.ok[i], sent.ok[i]);
        EXPECT_EQ(std::bit_cast<std::uint64_t>(got.points[i].dmMissPct),
                  std::bit_cast<std::uint64_t>(sent.points[i].dmMissPct));
        EXPECT_EQ(std::bit_cast<std::uint64_t>(got.points[i].deMissPct),
                  std::bit_cast<std::uint64_t>(sent.points[i].deMissPct));
        EXPECT_EQ(std::bit_cast<std::uint64_t>(got.points[i].optMissPct),
                  std::bit_cast<std::uint64_t>(sent.points[i].optMissPct));
    }
    ASSERT_EQ(got.failures.size(), 1u);
    EXPECT_EQ(got.failures[0].bench, "tomcatv");
    EXPECT_EQ(got.failures[0].sizeBytes, 4096u);
    EXPECT_EQ(got.failures[0].model, "dm");
    EXPECT_EQ(got.failures[0].status.code(), StatusCode::Internal);
    EXPECT_EQ(got.failures[0].status.message(), "injected");
}

TEST(Dxp1Bodies, SweepResponseBytesArePinned)
{
    SweepResult result;
    result.trace = "li";
    result.refs = 30000;
    result.outcome.points.push_back({1024, 12.5, 0.25, 1.0 / 3.0});
    result.outcome.ok.push_back(1);
    result.outcome.points.push_back({2048});
    result.outcome.ok.push_back(0);
    result.outcome.failures.push_back(
        {"li", 2048, "triad", Status::internal("injected fault")});

    // The layout deployed clients parse, field by field.
    static constexpr char kPinned[] =
        "\x02\x00\x00\x00li"                        // trace
        "\x30\x75\x00\x00\x00\x00\x00\x00"           // refs 30000
        "\x02\x00\x00\x00"                          // 2 points
        "\x00\x04\x00\x00\x00\x00\x00\x00\x01"       // 1KB, ok
        "\x00\x00\x00\x00\x00\x00\x29\x40"           // dm 12.5
        "\x00\x00\x00\x00\x00\x00\xd0\x3f"           // de 0.25
        "\x55\x55\x55\x55\x55\x55\xd5\x3f"           // opt 1/3
        "\x00\x08\x00\x00\x00\x00\x00\x00\x00"       // 2KB, failed
        "\x00\x00\x00\x00\x00\x00\x00\x00"           // dm 0
        "\x00\x00\x00\x00\x00\x00\x00\x00"           // de 0
        "\x00\x00\x00\x00\x00\x00\x00\x00"           // opt 0
        "\x01\x00\x00\x00"                          // 1 failure
        "\x02\x00\x00\x00li"                        // bench
        "\x00\x08\x00\x00\x00\x00\x00\x00"           // 2KB
        "\x05\x00\x00\x00triad"                     // model
        "\x04"                                      // Internal
        "\x0e\x00\x00\x00injected fault";           // message
    const std::string pinned(kPinned, sizeof(kPinned) - 1);
    EXPECT_EQ(encodeBody(result), pinned);

    const auto parsed = parseBody<SweepResult>(pinned);
    ASSERT_TRUE(parsed.ok()) << parsed.status().toString();
    EXPECT_EQ(encodeBody(parsed.value()), pinned);
}

TEST(Dxp1Bodies, StatsRoundTrips)
{
    StatsResult stats;
    stats.counters.push_back({"requests", 12});
    stats.counters.push_back({"store-resident-bytes", 1ull << 33});
    const auto parsed = parseBody<StatsResult>(encodeBody(stats));
    ASSERT_TRUE(parsed.ok()) << parsed.status().toString();
    ASSERT_EQ(parsed.value().counters.size(), 2u);
    EXPECT_EQ(parsed.value().counters[0].first, "requests");
    EXPECT_EQ(parsed.value().counters[0].second, 12u);
    EXPECT_EQ(parsed.value().counters[1].second, 1ull << 33);
}

TEST(Dxp1Bodies, HelloRoundTrips)
{
    HelloInfo hello;
    hello.clientId = "loadgen-3";
    const auto parsed = parseBody<HelloInfo>(encodeBody(hello));
    ASSERT_TRUE(parsed.ok()) << parsed.status().toString();
    EXPECT_EQ(parsed.value().clientId, hello.clientId);
}

TEST(Dxp1Bodies, BusyRoundTripsItsRetryAfterHint)
{
    BusyInfo busy;
    busy.retryAfterMs = 750;
    const auto parsed = parseBody<BusyInfo>(encodeBody(busy));
    ASSERT_TRUE(parsed.ok()) << parsed.status().toString();
    EXPECT_EQ(parsed.value().retryAfterMs, 750u);
}

TEST(Dxp1Bodies, LegacyEmptyBusyPayloadParsesAsNoHint)
{
    // Servers that predate the retry-after extension send BUSY with an
    // empty payload; it must keep parsing as "no hint".
    const auto parsed = parseBody<BusyInfo>({});
    ASSERT_TRUE(parsed.ok()) << parsed.status().toString();
    EXPECT_EQ(parsed.value().retryAfterMs, 0u);
}

TEST(Dxp1Bodies, BusyPayloadWithTrailingGarbageIsRejected)
{
    std::string payload = encodeBody(BusyInfo{250});
    payload += "junk";
    const auto parsed = parseBody<BusyInfo>(payload);
    ASSERT_FALSE(parsed.ok());
    EXPECT_EQ(parsed.status().code(), StatusCode::CorruptInput);

    // A short (non-empty, non-u32) payload is equally malformed.
    const auto tooShort = parseBody<BusyInfo>(std::string("\x01", 1));
    ASSERT_FALSE(tooShort.ok());
    EXPECT_EQ(tooShort.status().code(), StatusCode::CorruptInput);
}

TEST(Dxp1Bodies, NewStatusCodesSurviveTheWire)
{
    for (const StatusCode code :
         {StatusCode::DeadlineExceeded, StatusCode::Busy})
    {
        const Status sent = code == StatusCode::Busy
                                ? Status::busy("shed", 40)
                                : Status::deadlineExceeded("late");
        const auto parsed =
            parseBody<ErrorInfo>(encodeBody(sent));
        ASSERT_TRUE(parsed.ok()) << parsed.status().toString();
        EXPECT_EQ(statusFromWire(parsed.value()).code(), code);
    }
}

TEST(Dxp1Bodies, ErrorRoundTripsThroughStatusFromWire)
{
    const Status sent = Status::resourceLimit("deadline expired");
    const auto parsed =
        parseBody<ErrorInfo>(encodeBody(sent));
    ASSERT_TRUE(parsed.ok()) << parsed.status().toString();
    const Status rebuilt = statusFromWire(parsed.value());
    EXPECT_EQ(rebuilt.code(), StatusCode::ResourceLimit);
    EXPECT_NE(rebuilt.toString().find("deadline expired"),
              std::string::npos);
}

TEST(Dxp1Bodies, UnknownWireCodeMapsToInternal)
{
    ErrorInfo error;
    error.code = 200;
    error.message = "from the future";
    EXPECT_EQ(statusFromWire(error).code(), StatusCode::Internal);
}

// ---------------------------------------------------------------------
// Every body's bytes, pinned. Once one field list drives both the
// encoder and the parser, a round trip cannot see a layout change;
// these golden images can. Each is the layout deployed peers speak,
// one field per group of hex digits.

std::string
hexOf(std::string_view bytes)
{
    static constexpr char kDigits[] = "0123456789abcdef";
    std::string hex;
    for (const char c : bytes) {
        const auto byte = static_cast<unsigned char>(c);
        hex += kDigits[byte >> 4];
        hex += kDigits[byte & 0xf];
    }
    return hex;
}

std::string
bytesOf(std::string_view golden)
{
    std::string digits;
    for (const char c : golden)
        if (c != ' ')
            digits += c;
    std::string bytes;
    for (std::size_t i = 0; i + 1 < digits.size(); i += 2)
        bytes += static_cast<char>(
            std::stoi(digits.substr(i, 2), nullptr, 16));
    return bytes;
}

/** @p body encodes to @p golden, and @p golden parses back to a body
 * that encodes to the same bytes. */
template <class M>
void
expectPinned(const M &body, std::string_view golden)
{
    const std::string pinned = bytesOf(golden);
    EXPECT_EQ(hexOf(encodeBody(body)), hexOf(pinned));
    const Result<M> parsed = parseBody<M>(pinned);
    ASSERT_TRUE(parsed.ok()) << parsed.status().toString();
    EXPECT_EQ(hexOf(encodeBody(parsed.value())), hexOf(pinned));
}

TEST(Dxp1Pinned, PingResponse)
{
    expectPinned(PingInfo{"9.9.9", 7},
                 "05000000 392e392e39"  // version
                 " 0700000000000000"); // traces
}

TEST(Dxp1Pinned, ListResponse)
{
    expectPinned(std::vector<TraceListEntry>{{"li", 4096, 1},
                                             {"a.dxt3", 0, 0}},
                 "02000000"                         // 2 entries
                 " 02000000 6c69 0010000000000000 01" // li, 4KB, warm
                 " 06000000 612e64787433"             // a.dxt3
                 " 0000000000000000 00");             // 0 B, cold
}

TEST(Dxp1Pinned, StatsResponse)
{
    expectPinned(StatsResult{{{"requests", 42}, {"busy", 1ull << 33}}},
                 "02000000"                                  // 2 rows
                 " 08000000 7265717565737473 2a00000000000000" // 42
                 " 04000000 62757379 0000000002000000");       // 2^33
}

TEST(Dxp1Pinned, PutResponse)
{
    expectPinned(PutTraceResult{"campaign:gcc", 123456},
                 "0c000000 63616d706169676e3a676363" // name
                 " 40e2010000000000");               // refs
}

TEST(Dxp1Pinned, ReplayRequest)
{
    ReplayRequest request;
    request.trace = "gcc";
    request.model = "dynex";
    request.sizeBytes = 32 * 1024;
    request.lineBytes = 16;
    request.stickyMax = 3;
    request.lastLine = 1;
    request.victimEntries = 8;
    request.deadlineMs = 1500;
    expectPinned(request, "03000000 676363"        // trace
                          " 05000000 64796e6578"   // model
                          " 0080000000000000"      // 32KB
                          " 10000000"              // 16 B lines
                          " 03 01"                 // sticky, last line
                          " 08000000"              // victim entries
                          " dc050000");            // deadline 1500 ms
}

TEST(Dxp1Pinned, ReplayResponse)
{
    ReplayResult result;
    result.model = "dm";
    result.refs = 1000;
    result.stats.accesses = 1000;
    result.stats.hits = 800;
    result.stats.misses = 200;
    result.stats.coldMisses = 16;
    result.stats.fills = 150;
    result.stats.bypasses = 50;
    result.stats.evictions = 140;
    expectPinned(result, "02000000 646d"      // model
                         " e803000000000000"  // refs
                         " e803000000000000"  // accesses
                         " 2003000000000000"  // hits
                         " c800000000000000"  // misses
                         " 1000000000000000"  // cold misses
                         " 9600000000000000"  // fills
                         " 3200000000000000"  // bypasses
                         " 8c00000000000000"); // evictions
}

TEST(Dxp1Pinned, SweepRequestWithTheDefaultAxis)
{
    SweepRequest request;
    request.trace = "li";
    request.lineBytes = 4;
    request.engine = 2;
    request.stickyMax = 1;
    request.deadlineMs = 250;
    expectPinned(request, "02000000 6c69" // trace
                          " 04000000"     // 4 B lines
                          " 02 01"        // engine, sticky
                          " fa000000");   // deadline 250 ms
}

TEST(Dxp1Pinned, SweepRequestWithAnAxis)
{
    SweepRequest request;
    request.trace = "li";
    request.lineBytes = 4;
    request.engine = 2;
    request.stickyMax = 1;
    request.deadlineMs = 250;
    request.sizes = {1024, 4096};
    expectPinned(request, "02000000 6c69 04000000 02 01 fa000000"
                          " 02000000"           // 2 axis sizes
                          " 0004000000000000"   // 1KB
                          " 0010000000000000"); // 4KB
}

TEST(Dxp1Pinned, PutRequest)
{
    PutTraceRequest request;
    request.name = "x";
    request.refs = {ifetch(0x1000), load(0x2000, 8),
                    store(0xffff'0000ull, 1)};
    expectPinned(request, "01000000 78"                // name
                          " 0300000000000000"          // 3 records
                          " 0010000000000000 00 04"    // ifetch/4
                          " 0020000000000000 01 08"    // load/8
                          " 0000ffff00000000 02 01");  // store/1
}

TEST(Dxp1Pinned, ErrorResponse)
{
    expectPinned(ErrorInfo{5, "late"}, "05"                 // code
                                       " 04000000 6c617465"); // message
}

TEST(Dxp1Pinned, HelloRequest)
{
    expectPinned(HelloInfo{"loadgen-3"},
                 "09000000 6c6f616467656e2d33"); // client id
}

TEST(Dxp1Pinned, BusyResponse)
{
    expectPinned(BusyInfo{750}, "ee020000"); // retry after 750 ms
}

TEST(Dxp1Fuzz, ShortDeterministicCampaignFindsNoViolations)
{
    const auto report = dynex::test::runFrameFuzzer(1992, 2000);
    EXPECT_EQ(report.iterations, 2000u);
    EXPECT_TRUE(report.ok()) << report.violations.front();
    // The corpus mutants must actually exercise the error paths.
    EXPECT_GT(report.structuredErrors, 0u);

    // Bodies framed again with valid CRCs reach their parsers, and
    // the parsers' own error paths run.
    const auto bodies = dynex::test::runFrameFuzzer(
        1992, 2000, dynex::test::FrameFuzzMode::Bodies);
    EXPECT_EQ(bodies.iterations, 2000u);
    EXPECT_TRUE(bodies.ok()) << bodies.violations.front();
    EXPECT_GT(bodies.bodyErrors, 0u);
    EXPECT_GT(bodies.cleanSuccesses, 0u);
}

} // namespace
} // namespace dynex::server

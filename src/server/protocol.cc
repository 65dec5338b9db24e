#include "server/protocol.h"

#include <bit>
#include <cstring>

#include "sim/sweep.h"
#include "util/crc32.h"

namespace dynex
{
namespace server
{

namespace
{

void
putLe(std::string &out, std::uint64_t v, std::size_t bytes)
{
    for (std::size_t i = 0; i < bytes; ++i)
        out.push_back(static_cast<char>((v >> (8 * i)) & 0xff));
}

std::uint64_t
getLe(const unsigned char *data, std::size_t bytes)
{
    std::uint64_t v = 0;
    for (std::size_t i = 0; i < bytes; ++i)
        v |= static_cast<std::uint64_t>(data[i]) << (8 * i);
    return v;
}

} // namespace

const char *
msgTypeName(MsgType type)
{
    switch (type) {
      case MsgType::PingRequest: return "ping";
      case MsgType::ListRequest: return "list";
      case MsgType::ReplayRequest: return "replay";
      case MsgType::SweepRequest: return "sweep";
      case MsgType::StatsRequest: return "stats";
      case MsgType::HelloRequest: return "hello";
      case MsgType::PutRequest: return "put";
      case MsgType::PingResponse: return "ping-ok";
      case MsgType::ListResponse: return "list-ok";
      case MsgType::ReplayResponse: return "replay-ok";
      case MsgType::SweepResponse: return "sweep-ok";
      case MsgType::StatsResponse: return "stats-ok";
      case MsgType::HelloResponse: return "hello-ok";
      case MsgType::PutResponse: return "put-ok";
      case MsgType::ErrorResponse: return "error";
      case MsgType::BusyResponse: return "busy";
    }
    return "unknown";
}

bool
isRequestType(MsgType type)
{
    switch (type) {
      case MsgType::PingRequest:
      case MsgType::ListRequest:
      case MsgType::ReplayRequest:
      case MsgType::SweepRequest:
      case MsgType::StatsRequest:
      case MsgType::HelloRequest:
      case MsgType::PutRequest:
        return true;
      default:
        return false;
    }
}

namespace
{

bool
isKnownType(std::uint16_t raw)
{
    switch (static_cast<MsgType>(raw)) {
      case MsgType::PingRequest:
      case MsgType::ListRequest:
      case MsgType::ReplayRequest:
      case MsgType::SweepRequest:
      case MsgType::StatsRequest:
      case MsgType::HelloRequest:
      case MsgType::PutRequest:
      case MsgType::PingResponse:
      case MsgType::ListResponse:
      case MsgType::ReplayResponse:
      case MsgType::SweepResponse:
      case MsgType::StatsResponse:
      case MsgType::HelloResponse:
      case MsgType::PutResponse:
      case MsgType::ErrorResponse:
      case MsgType::BusyResponse:
        return true;
    }
    return false;
}

} // namespace

std::string
encodeFrame(MsgType type, std::string_view payload,
            std::uint64_t trace_id)
{
    const std::size_t prefix = trace_id != 0 ? kTraceIdBytes : 0;
    std::string out;
    out.reserve(kFrameHeaderBytes + prefix + payload.size() +
                kFrameTrailerBytes);
    out.append(kFrameMagic, sizeof(kFrameMagic));
    putLe(out, static_cast<std::uint16_t>(type), 2);
    putLe(out, trace_id != 0 ? kFrameFlagTraceId : 0, 2); // flags
    putLe(out, static_cast<std::uint32_t>(prefix + payload.size()), 4);
    const std::uint32_t header_crc = crc32Of(out.data(), out.size());
    putLe(out, header_crc, 4);
    if (trace_id != 0)
        putLe(out, trace_id, 8);
    out.append(payload.data(), payload.size());
    // The payload CRC covers the trace-id prefix too: it is payload
    // bytes as far as framing is concerned.
    putLe(out, crc32Of(out.data() + kFrameHeaderBytes,
                       prefix + payload.size()),
          4);
    return out;
}

Result<FrameHeader>
decodeFrameHeader(const void *data)
{
    const auto *bytes = static_cast<const unsigned char *>(data);
    if (std::memcmp(bytes, kFrameMagic, sizeof(kFrameMagic)) != 0)
        return Status::corruptInput("DXP1: bad frame magic");
    const auto type_raw =
        static_cast<std::uint16_t>(getLe(bytes + 4, 2));
    const auto flags = static_cast<std::uint16_t>(getLe(bytes + 6, 2));
    const auto payload_bytes =
        static_cast<std::uint32_t>(getLe(bytes + 8, 4));
    const auto header_crc =
        static_cast<std::uint32_t>(getLe(bytes + 12, 4));
    if (crc32Of(bytes, 12) != header_crc)
        return Status::corruptInput("DXP1: header CRC mismatch");
    // The CRC vouched for the fields; anything wrong below is a
    // protocol violation by a confused peer, still structured.
    if ((flags & ~kFrameFlagTraceId) != 0)
        return Status::corruptInput("DXP1: unknown flag bits " +
                                    std::to_string(flags));
    if (!isKnownType(type_raw))
        return Status::corruptInput("DXP1: unknown message type " +
                                    std::to_string(type_raw));
    if (payload_bytes > kMaxPayloadBytes)
        return Status::resourceLimit(
            "DXP1: payload length " + std::to_string(payload_bytes) +
            " exceeds cap " + std::to_string(kMaxPayloadBytes));
    if ((flags & kFrameFlagTraceId) != 0 &&
        payload_bytes < kTraceIdBytes)
        return Status::corruptInput(
            "DXP1: trace-id flag on a payload of " +
            std::to_string(payload_bytes) + " bytes");
    FrameHeader header;
    header.type = static_cast<MsgType>(type_raw);
    header.payloadBytes = payload_bytes;
    header.hasTraceId = (flags & kFrameFlagTraceId) != 0;
    return header;
}

Status
verifyFramePayload(std::string_view payload, std::uint32_t trailer_crc)
{
    if (crc32Of(payload.data(), payload.size()) != trailer_crc)
        return Status::corruptInput("DXP1: payload CRC mismatch");
    return Status();
}

Result<Frame>
decodeFrame(std::string_view bytes)
{
    if (bytes.size() < kFrameHeaderBytes)
        return Status::corruptInput("DXP1: truncated frame header");
    Result<FrameHeader> header = decodeFrameHeader(bytes.data());
    if (!header.ok())
        return header.status();
    const std::size_t want = kFrameHeaderBytes + header->payloadBytes +
                             kFrameTrailerBytes;
    if (bytes.size() < want)
        return Status::corruptInput("DXP1: truncated frame payload");
    if (bytes.size() > want)
        return Status::corruptInput("DXP1: trailing bytes after frame");
    const std::string_view payload =
        bytes.substr(kFrameHeaderBytes, header->payloadBytes);
    const auto trailer = reinterpret_cast<const unsigned char *>(
        bytes.data() + want - kFrameTrailerBytes);
    const Status payload_ok = verifyFramePayload(
        payload, static_cast<std::uint32_t>(getLe(trailer, 4)));
    if (!payload_ok.ok())
        return payload_ok;
    Frame frame;
    frame.type = header->type;
    std::string_view body = payload;
    if (header->hasTraceId) {
        frame.traceId = getLe(
            reinterpret_cast<const unsigned char *>(body.data()),
            kTraceIdBytes);
        body.remove_prefix(kTraceIdBytes);
    }
    frame.payload.assign(body.data(), body.size());
    return frame;
}

// ---------------------------------------------------------------------
// WireWriter / WireReader

void
WireWriter::u8(std::uint8_t v)
{
    putLe(out, v, 1);
}

void
WireWriter::u16(std::uint16_t v)
{
    putLe(out, v, 2);
}

void
WireWriter::u32(std::uint32_t v)
{
    putLe(out, v, 4);
}

void
WireWriter::u64(std::uint64_t v)
{
    putLe(out, v, 8);
}

void
WireWriter::f64(double v)
{
    putLe(out, std::bit_cast<std::uint64_t>(v), 8);
}

void
WireWriter::str(std::string_view v)
{
    u32(static_cast<std::uint32_t>(v.size()));
    out.append(v.data(), v.size());
}

Status
WireReader::take(void *into, std::size_t n, const char *what)
{
    if (remaining() < n)
        return Status::corruptInput(std::string("DXP1: truncated ") +
                                    what);
    std::memcpy(into, data.data() + at, n);
    at += n;
    return Status();
}

Status
WireReader::u8(std::uint8_t &v)
{
    unsigned char raw[1];
    if (Status s = take(raw, 1, "u8"); !s.ok())
        return s;
    v = raw[0];
    return Status();
}

Status
WireReader::u16(std::uint16_t &v)
{
    unsigned char raw[2];
    if (Status s = take(raw, 2, "u16"); !s.ok())
        return s;
    v = static_cast<std::uint16_t>(getLe(raw, 2));
    return Status();
}

Status
WireReader::u32(std::uint32_t &v)
{
    unsigned char raw[4];
    if (Status s = take(raw, 4, "u32"); !s.ok())
        return s;
    v = static_cast<std::uint32_t>(getLe(raw, 4));
    return Status();
}

Status
WireReader::u64(std::uint64_t &v)
{
    unsigned char raw[8];
    if (Status s = take(raw, 8, "u64"); !s.ok())
        return s;
    v = getLe(raw, 8);
    return Status();
}

Status
WireReader::f64(double &v)
{
    std::uint64_t image = 0;
    if (Status s = u64(image); !s.ok())
        return s;
    v = std::bit_cast<double>(image);
    return Status();
}

Status
WireReader::str(std::string &v)
{
    std::uint32_t len = 0;
    if (Status s = u32(len); !s.ok())
        return s;
    if (len > kMaxWireStringBytes)
        return Status::resourceLimit("DXP1: string length " +
                                     std::to_string(len) +
                                     " exceeds cap");
    if (remaining() < len)
        return Status::corruptInput("DXP1: truncated string");
    v.assign(data.data() + at, len);
    at += len;
    return Status();
}

Status
WireReader::done() const
{
    if (remaining() != 0)
        return Status::corruptInput(
            "DXP1: " + std::to_string(remaining()) +
            " unconsumed payload bytes");
    return Status();
}

// ---------------------------------------------------------------------
// Message bodies

std::string
encodePingResponse(const PingInfo &info)
{
    WireWriter w;
    w.str(info.version);
    w.u64(info.traces);
    return w.take();
}

Result<PingInfo>
parsePingResponse(std::string_view payload)
{
    WireReader r(payload);
    PingInfo info;
    if (Status s = r.str(info.version); !s.ok())
        return s;
    if (Status s = r.u64(info.traces); !s.ok())
        return s;
    if (Status s = r.done(); !s.ok())
        return s;
    return info;
}

std::string
encodeListResponse(const std::vector<TraceListEntry> &traces)
{
    WireWriter w;
    w.u32(static_cast<std::uint32_t>(traces.size()));
    for (const TraceListEntry &entry : traces) {
        w.str(entry.name);
        w.u64(entry.fileBytes);
        w.u8(entry.resident);
    }
    return w.take();
}

Result<std::vector<TraceListEntry>>
parseListResponse(std::string_view payload)
{
    WireReader r(payload);
    std::uint32_t count = 0;
    if (Status s = r.u32(count); !s.ok())
        return s;
    // Every entry takes >= 13 bytes; a count the body cannot hold is
    // rejected before the reserve.
    if (count > payload.size() / 13 + 1)
        return Status::corruptInput("DXP1: implausible list count");
    std::vector<TraceListEntry> traces;
    traces.reserve(count);
    for (std::uint32_t i = 0; i < count; ++i) {
        TraceListEntry entry;
        if (Status s = r.str(entry.name); !s.ok())
            return s;
        if (Status s = r.u64(entry.fileBytes); !s.ok())
            return s;
        if (Status s = r.u8(entry.resident); !s.ok())
            return s;
        traces.push_back(std::move(entry));
    }
    if (Status s = r.done(); !s.ok())
        return s;
    return traces;
}

std::string
encodeReplayRequest(const ReplayRequest &request)
{
    WireWriter w;
    w.str(request.trace);
    w.str(request.model);
    w.u64(request.sizeBytes);
    w.u32(request.lineBytes);
    w.u8(request.stickyMax);
    w.u8(request.lastLine);
    w.u32(request.victimEntries);
    w.u32(request.deadlineMs);
    return w.take();
}

Result<ReplayRequest>
parseReplayRequest(std::string_view payload)
{
    WireReader r(payload);
    ReplayRequest request;
    if (Status s = r.str(request.trace); !s.ok())
        return s;
    if (Status s = r.str(request.model); !s.ok())
        return s;
    if (Status s = r.u64(request.sizeBytes); !s.ok())
        return s;
    if (Status s = r.u32(request.lineBytes); !s.ok())
        return s;
    if (Status s = r.u8(request.stickyMax); !s.ok())
        return s;
    if (Status s = r.u8(request.lastLine); !s.ok())
        return s;
    if (Status s = r.u32(request.victimEntries); !s.ok())
        return s;
    if (Status s = r.u32(request.deadlineMs); !s.ok())
        return s;
    if (Status s = r.done(); !s.ok())
        return s;
    return request;
}

namespace
{

void
writeStats(WireWriter &w, const CacheStats &stats)
{
    w.u64(stats.accesses);
    w.u64(stats.hits);
    w.u64(stats.misses);
    w.u64(stats.coldMisses);
    w.u64(stats.fills);
    w.u64(stats.bypasses);
    w.u64(stats.evictions);
}

Status
readStats(WireReader &r, CacheStats &stats)
{
    if (Status s = r.u64(stats.accesses); !s.ok())
        return s;
    if (Status s = r.u64(stats.hits); !s.ok())
        return s;
    if (Status s = r.u64(stats.misses); !s.ok())
        return s;
    if (Status s = r.u64(stats.coldMisses); !s.ok())
        return s;
    if (Status s = r.u64(stats.fills); !s.ok())
        return s;
    if (Status s = r.u64(stats.bypasses); !s.ok())
        return s;
    if (Status s = r.u64(stats.evictions); !s.ok())
        return s;
    return Status();
}

} // namespace

std::string
encodeReplayResponse(const ReplayResult &result)
{
    WireWriter w;
    w.str(result.model);
    w.u64(result.refs);
    writeStats(w, result.stats);
    return w.take();
}

Result<ReplayResult>
parseReplayResponse(std::string_view payload)
{
    WireReader r(payload);
    ReplayResult result;
    if (Status s = r.str(result.model); !s.ok())
        return s;
    if (Status s = r.u64(result.refs); !s.ok())
        return s;
    if (Status s = readStats(r, result.stats); !s.ok())
        return s;
    if (Status s = r.done(); !s.ok())
        return s;
    return result;
}

std::string
encodeSweepRequest(const SweepRequest &request)
{
    WireWriter w;
    w.str(request.trace);
    w.u32(request.lineBytes);
    w.u8(request.engine);
    w.u8(request.stickyMax);
    w.u32(request.deadlineMs);
    // Default-axis requests omit the sizes block entirely, keeping
    // them byte-identical to the pre-extension layout.
    if (!request.sizes.empty()) {
        w.u32(static_cast<std::uint32_t>(request.sizes.size()));
        for (const std::uint64_t size : request.sizes)
            w.u64(size);
    }
    return w.take();
}

Result<SweepRequest>
parseSweepRequest(std::string_view payload)
{
    WireReader r(payload);
    SweepRequest request;
    if (Status s = r.str(request.trace); !s.ok())
        return s;
    if (Status s = r.u32(request.lineBytes); !s.ok())
        return s;
    if (Status s = r.u8(request.engine); !s.ok())
        return s;
    if (Status s = r.u8(request.stickyMax); !s.ok())
        return s;
    if (Status s = r.u32(request.deadlineMs); !s.ok())
        return s;
    if (r.remaining() > 0) { // optional custom axis
        std::uint32_t count = 0;
        if (Status s = r.u32(count); !s.ok())
            return s;
        if (count > kMaxSweepAxisSizes)
            return Status::resourceLimit(
                "DXP1: sweep axis of " + std::to_string(count) +
                " sizes exceeds cap " +
                std::to_string(kMaxSweepAxisSizes));
        request.sizes.resize(count);
        for (std::uint64_t &size : request.sizes)
            if (Status s = r.u64(size); !s.ok())
                return s;
    }
    if (Status s = r.done(); !s.ok())
        return s;
    if (request.engine > 2)
        return Status::corruptInput("DXP1: bad replay engine " +
                                    std::to_string(request.engine));
    return request;
}

std::string
encodeSweepResponse(const SweepResult &result)
{
    WireWriter w;
    w.str(result.trace);
    w.u64(result.refs);
    w.u32(static_cast<std::uint32_t>(result.points.size()));
    for (const SweepPointWire &point : result.points) {
        w.u64(point.sizeBytes);
        w.u8(point.ok);
        w.f64(point.dmMissPct);
        w.f64(point.deMissPct);
        w.f64(point.optMissPct);
    }
    w.u32(static_cast<std::uint32_t>(result.failures.size()));
    for (const SweepFailureWire &failure : result.failures) {
        w.str(failure.bench);
        w.u64(failure.sizeBytes);
        w.str(failure.model);
        w.u8(failure.code);
        w.str(failure.message);
    }
    return w.take();
}

Result<SweepResult>
parseSweepResponse(std::string_view payload)
{
    WireReader r(payload);
    SweepResult result;
    if (Status s = r.str(result.trace); !s.ok())
        return s;
    if (Status s = r.u64(result.refs); !s.ok())
        return s;
    std::uint32_t points = 0;
    if (Status s = r.u32(points); !s.ok())
        return s;
    if (points > payload.size() / 33 + 1) // 33 bytes per point
        return Status::corruptInput("DXP1: implausible point count");
    result.points.resize(points);
    for (SweepPointWire &point : result.points) {
        if (Status s = r.u64(point.sizeBytes); !s.ok())
            return s;
        if (Status s = r.u8(point.ok); !s.ok())
            return s;
        if (Status s = r.f64(point.dmMissPct); !s.ok())
            return s;
        if (Status s = r.f64(point.deMissPct); !s.ok())
            return s;
        if (Status s = r.f64(point.optMissPct); !s.ok())
            return s;
    }
    std::uint32_t failures = 0;
    if (Status s = r.u32(failures); !s.ok())
        return s;
    if (failures > payload.size() / 21 + 1) // >= 21 bytes per failure
        return Status::corruptInput("DXP1: implausible failure count");
    result.failures.resize(failures);
    for (SweepFailureWire &failure : result.failures) {
        if (Status s = r.str(failure.bench); !s.ok())
            return s;
        if (Status s = r.u64(failure.sizeBytes); !s.ok())
            return s;
        if (Status s = r.str(failure.model); !s.ok())
            return s;
        if (Status s = r.u8(failure.code); !s.ok())
            return s;
        if (Status s = r.str(failure.message); !s.ok())
            return s;
    }
    if (Status s = r.done(); !s.ok())
        return s;
    return result;
}

std::string
encodePutRequest(const PutTraceRequest &request)
{
    WireWriter w;
    w.str(request.name);
    w.u64(request.refs.size());
    for (const MemRef &ref : request.refs) {
        w.u64(ref.addr);
        w.u8(static_cast<std::uint8_t>(ref.type));
        w.u8(ref.size);
    }
    return w.take();
}

Result<PutTraceRequest>
parsePutRequest(std::string_view payload)
{
    WireReader r(payload);
    PutTraceRequest request;
    if (Status s = r.str(request.name); !s.ok())
        return s;
    if (request.name.empty())
        return Status::corruptInput("DXP1: empty put trace name");
    std::uint64_t count = 0;
    if (Status s = r.u64(count); !s.ok())
        return s;
    if (count > kMaxPutRefs)
        return Status::resourceLimit(
            "DXP1: put of " + std::to_string(count) +
            " refs exceeds cap " + std::to_string(kMaxPutRefs));
    // Every record takes 10 bytes; a count the body cannot hold is
    // rejected before the reserve.
    if (count > payload.size() / 10 + 1)
        return Status::corruptInput("DXP1: implausible put count");
    request.refs.reserve(count);
    for (std::uint64_t i = 0; i < count; ++i) {
        std::uint64_t addr = 0;
        std::uint8_t type = 0;
        std::uint8_t size = 0;
        if (Status s = r.u64(addr); !s.ok())
            return s;
        if (Status s = r.u8(type); !s.ok())
            return s;
        if (Status s = r.u8(size); !s.ok())
            return s;
        if (type > 2)
            return Status::corruptInput(
                "DXP1: put record " + std::to_string(i) +
                ": unknown reference kind " + std::to_string(type));
        if (size == 0)
            return Status::corruptInput("DXP1: put record " +
                                        std::to_string(i) +
                                        ": zero access size");
        request.refs.push_back(
            MemRef{addr, static_cast<RefType>(type), size});
    }
    if (Status s = r.done(); !s.ok())
        return s;
    return request;
}

std::string
encodePutResponse(const PutTraceResult &result)
{
    WireWriter w;
    w.str(result.name);
    w.u64(result.refs);
    return w.take();
}

Result<PutTraceResult>
parsePutResponse(std::string_view payload)
{
    WireReader r(payload);
    PutTraceResult result;
    if (Status s = r.str(result.name); !s.ok())
        return s;
    if (Status s = r.u64(result.refs); !s.ok())
        return s;
    if (Status s = r.done(); !s.ok())
        return s;
    return result;
}

std::string
encodeStatsResponse(const StatsResult &stats)
{
    WireWriter w;
    w.u32(static_cast<std::uint32_t>(stats.counters.size()));
    for (const auto &[name, value] : stats.counters) {
        w.str(name);
        w.u64(value);
    }
    return w.take();
}

Result<StatsResult>
parseStatsResponse(std::string_view payload)
{
    WireReader r(payload);
    std::uint32_t count = 0;
    if (Status s = r.u32(count); !s.ok())
        return s;
    if (count > payload.size() / 12 + 1) // >= 12 bytes per counter
        return Status::corruptInput("DXP1: implausible counter count");
    StatsResult stats;
    stats.counters.reserve(count);
    for (std::uint32_t i = 0; i < count; ++i) {
        std::string name;
        std::uint64_t value = 0;
        if (Status s = r.str(name); !s.ok())
            return s;
        if (Status s = r.u64(value); !s.ok())
            return s;
        stats.counters.emplace_back(std::move(name), value);
    }
    if (Status s = r.done(); !s.ok())
        return s;
    return stats;
}

std::string
encodeErrorResponse(const Status &status)
{
    WireWriter w;
    w.u8(static_cast<std::uint8_t>(status.code()));
    w.str(status.message());
    return w.take();
}

Result<ErrorInfo>
parseErrorResponse(std::string_view payload)
{
    WireReader r(payload);
    ErrorInfo error;
    if (Status s = r.u8(error.code); !s.ok())
        return s;
    if (Status s = r.str(error.message); !s.ok())
        return s;
    if (Status s = r.done(); !s.ok())
        return s;
    return error;
}

std::string
encodeHelloRequest(const HelloInfo &hello)
{
    WireWriter w;
    w.str(hello.clientId);
    return w.take();
}

Result<HelloInfo>
parseHelloRequest(std::string_view payload)
{
    WireReader r(payload);
    HelloInfo hello;
    if (Status s = r.str(hello.clientId); !s.ok())
        return s;
    if (Status s = r.done(); !s.ok())
        return s;
    return hello;
}

std::string
encodeBusyResponse(const BusyInfo &busy)
{
    WireWriter w;
    w.u32(busy.retryAfterMs);
    return w.take();
}

Result<BusyInfo>
parseBusyResponse(std::string_view payload)
{
    // Pre-hint servers sent an empty BUSY payload: still a valid shed,
    // just without a retry-after suggestion.
    BusyInfo busy;
    if (payload.empty())
        return busy;
    WireReader r(payload);
    if (Status s = r.u32(busy.retryAfterMs); !s.ok())
        return s;
    if (Status s = r.done(); !s.ok())
        return s;
    return busy;
}

Status
statusFromWire(const ErrorInfo &error)
{
    switch (static_cast<StatusCode>(error.code)) {
      case StatusCode::CorruptInput:
        return Status::corruptInput(error.message);
      case StatusCode::IoError:
        return Status::ioError(error.message);
      case StatusCode::ResourceLimit:
        return Status::resourceLimit(error.message);
      case StatusCode::DeadlineExceeded:
        return Status::deadlineExceeded(error.message);
      case StatusCode::Busy:
        return Status::busy(error.message);
      case StatusCode::InvalidArgument:
        return Status::invalidArgument(error.message);
      default:
        return Status::internal(error.message);
    }
}

} // namespace server
} // namespace dynex

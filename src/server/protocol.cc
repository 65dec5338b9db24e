#include "server/protocol.h"

#include <cstring>

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

bool
isKnownType(MsgType type)
{
    return visitMsgType(type, [](const char *, auto tag) {
        return !std::is_void_v<typename decltype(tag)::type>;
    });
}

} // namespace

const char *
msgTypeName(MsgType type)
{
    return visitMsgType(type, [](const char *name, auto) { return name; });
}

bool
isRequestType(MsgType type)
{
    return isKnownType(type) &&
           (static_cast<std::uint16_t>(type) & kResponseBit) == 0;
}

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
    if (!isKnownType(static_cast<MsgType>(type_raw)))
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
WireWriter::put(std::uint64_t v, std::size_t bytes)
{
    putLe(out, v, bytes);
}

void
WireWriter::str(std::string_view v)
{
    u32(static_cast<std::uint32_t>(v.size()));
    out.append(v.data(), v.size());
}

void
WireReader::str(std::string &v)
{
    std::uint32_t len = 0;
    u32(len);
    if (len > kMaxWireStringBytes)
        fail(Status::resourceLimit("DXP1: string length " +
                                   std::to_string(len) + " exceeds cap"));
    else if (remaining() < len)
        truncated("string");
    if (!failure.ok())
        return;
    v.assign(data.data() + at, len);
    at += len;
}

void
WireReader::truncated(const char *what)
{
    if (failure.ok())
        fail(Status::corruptInput(std::string("DXP1: truncated ") + what));
}

bool
WireReader::admitCount(std::uint64_t n, std::size_t min_bytes_each,
                       std::uint64_t cap, const char *what)
{
    if (!failure.ok())
        return false;
    if (cap != kUncapped && n > cap)
        fail(Status::resourceLimit("DXP1: " + std::string(what) +
                                   " count " + std::to_string(n) +
                                   " exceeds cap " + std::to_string(cap)));
    else if (n > data.size() / min_bytes_each + 1)
        fail(Status::corruptInput("DXP1: implausible " +
                                  std::string(what) + " count"));
    return failure.ok();
}

void
WireReader::fail(Status status)
{
    if (failure.ok())
        failure = std::move(status);
    at = data.size();
}

Status
WireReader::finish() const
{
    if (!failure.ok())
        return failure;
    if (remaining() != 0)
        return Status::corruptInput(
            "DXP1: " + std::to_string(remaining()) +
            " unconsumed payload bytes");
    return Status();
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

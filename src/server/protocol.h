/**
 * @file
 * DXP1: the dynex serving protocol. A small length-prefixed binary
 * framing (CRC-32-checked, reusing util/crc32) plus the request and
 * response message bodies the simulation server speaks.
 *
 * Frame layout (little-endian):
 *
 *   magic        "DXP1"                        4 bytes
 *   type         u16   message type            2 bytes
 *   flags        u16   extension bits          2 bytes
 *   payload_len  u32   payload byte count      4 bytes
 *   header_crc   u32   CRC-32 of bytes 0..11   4 bytes
 *   payload      payload_len bytes
 *   payload_crc  u32   CRC-32 of the payload   4 bytes
 *
 * The header CRC lets a receiver reject a corrupt length *before*
 * trusting it, and payload_len is additionally capped at
 * kMaxPayloadBytes, so a hostile frame can never trigger an unbounded
 * read or allocation. Any violation decodes to a structured Status
 * (CorruptInput / ResourceLimit), never a crash — the frame decoder
 * runs under the same corruption-fuzzer contract as the trace readers.
 *
 * The flags word was reserved-must-be-zero through PR 7; the one
 * extension so far is kFrameFlagTraceId: when set, the payload begins
 * with an 8-byte little-endian request trace id (covered by the
 * payload CRC like any other payload byte; payload_len includes it).
 * Decoders strip the prefix into Frame::traceId, so message-body
 * parsers never see it. Legacy flags=0 frames parse exactly as
 * before, and any other flag bit is still CorruptInput.
 *
 * Message bodies are encoded with WireWriter/WireReader: fixed-width
 * little-endian integers, IEEE-754 doubles bit-cast to u64 (so
 * simulation results survive the wire bit-exactly), and u32
 * length-prefixed strings.
 */

#ifndef DYNEX_SERVER_PROTOCOL_H
#define DYNEX_SERVER_PROTOCOL_H

#include <cstdint>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "cache/stats.h"
#include "trace/record.h"
#include "util/status.h"

namespace dynex
{
namespace server
{

/** Frame magic: "DXP1". */
inline constexpr char kFrameMagic[4] = {'D', 'X', 'P', '1'};

/** Fixed byte counts around the payload. */
inline constexpr std::size_t kFrameHeaderBytes = 16;
inline constexpr std::size_t kFrameTrailerBytes = 4;

/** Hard cap on a frame payload; larger lengths are ResourceLimit. */
inline constexpr std::uint32_t kMaxPayloadBytes = 64u * 1024 * 1024;

/** Hard cap on any single wire string (names, messages). */
inline constexpr std::uint32_t kMaxWireStringBytes = 1u * 1024 * 1024;

/** Frame flag: payload starts with an 8-byte LE request trace id. */
inline constexpr std::uint16_t kFrameFlagTraceId = 0x0001;

/** Byte count of the optional trace-id payload prefix. */
inline constexpr std::size_t kTraceIdBytes = 8;

/** DXP1 message types. Requests have the top bit clear, responses set. */
enum class MsgType : std::uint16_t
{
    PingRequest = 0x0001,   ///< liveness + server version (DXVER)
    ListRequest = 0x0002,   ///< enumerate served traces
    ReplayRequest = 0x0003, ///< one (trace, model, geometry) replay
    SweepRequest = 0x0004,  ///< full paper-size-axis triad sweep
    StatsRequest = 0x0005,  ///< server + TraceStore counters
    HelloRequest = 0x0006,  ///< identify the client for fair admission
    PutRequest = 0x0007,    ///< upload a trace by value for later runs

    PingResponse = 0x8001,
    ListResponse = 0x8002,
    ReplayResponse = 0x8003,
    SweepResponse = 0x8004,
    StatsResponse = 0x8005,
    HelloResponse = 0x8006,
    PutResponse = 0x8007,
    ErrorResponse = 0x80fe, ///< structured Status for a failed request
    BusyResponse = 0x80ff,  ///< backpressure: shed, retry later
};

/** Stable lowercase name ("ping", "sweep", "error", ...). */
const char *msgTypeName(MsgType type);

/** @return true when @p type is one of the five request types. */
bool isRequestType(MsgType type);

/**
 * A decoded frame: its type, its (CRC-verified) payload with any
 * trace-id prefix already stripped, and the request trace id carried
 * by the kFrameFlagTraceId extension (0 when the frame had none).
 */
struct Frame
{
    MsgType type = MsgType::ErrorResponse;
    std::string payload;
    std::uint64_t traceId = 0;
};

/** The validated fixed-size frame header. */
struct FrameHeader
{
    MsgType type = MsgType::ErrorResponse;
    std::uint32_t payloadBytes = 0; ///< includes any trace-id prefix
    bool hasTraceId = false;
};

/**
 * Serialize one complete frame (header + payload + trailer). A nonzero
 * @p trace_id sets kFrameFlagTraceId and prefixes the payload with the
 * id; 0 emits the legacy flags=0 layout byte-for-byte.
 */
std::string encodeFrame(MsgType type, std::string_view payload,
                        std::uint64_t trace_id = 0);

/**
 * Validate the first kFrameHeaderBytes bytes at @p data: magic, known
 * flags, header CRC, known type, payload cap. Socket readers call this
 * before trusting payloadBytes. A trace-id flag with a payload too
 * short to hold the id is CorruptInput here, so readers can always
 * slice kTraceIdBytes when hasTraceId is set.
 */
Result<FrameHeader> decodeFrameHeader(const void *data);

/** Check the payload CRC carried in @p trailer_crc. */
Status verifyFramePayload(std::string_view payload,
                          std::uint32_t trailer_crc);

/**
 * Decode exactly one frame from @p bytes. Truncated input, trailing
 * garbage, bad magic, and CRC mismatches all yield CorruptInput; an
 * over-cap length yields ResourceLimit. This is the entry point the
 * frame fuzzer hammers.
 */
Result<Frame> decodeFrame(std::string_view bytes);

/** Little-endian body serializer. */
class WireWriter
{
  public:
    void u8(std::uint8_t v);
    void u16(std::uint16_t v);
    void u32(std::uint32_t v);
    void u64(std::uint64_t v);
    /** Bit-exact: the double's IEEE-754 image as a u64. */
    void f64(double v);
    /** u32 length prefix + bytes. */
    void str(std::string_view v);

    const std::string &bytes() const { return out; }
    std::string take() { return std::move(out); }

  private:
    std::string out;
};

/**
 * Little-endian body parser over a borrowed buffer. Every read is
 * bounds-checked: reading past the end yields CorruptInput, a string
 * length over kMaxWireStringBytes yields ResourceLimit. done() checks
 * the body was consumed exactly.
 */
class WireReader
{
  public:
    explicit WireReader(std::string_view bytes) : data(bytes) {}

    Status u8(std::uint8_t &v);
    Status u16(std::uint16_t &v);
    Status u32(std::uint32_t &v);
    Status u64(std::uint64_t &v);
    Status f64(double &v);
    Status str(std::string &v);

    /** Ok iff the whole body has been consumed. */
    Status done() const;

    std::size_t remaining() const { return data.size() - at; }

  private:
    Status take(void *into, std::size_t n, const char *what);

    std::string_view data;
    std::size_t at = 0;
};

// ---------------------------------------------------------------------
// Message bodies.

/** PingResponse: the server's identity. */
struct PingInfo
{
    std::string version;   ///< DXVER: versionString() of the server
    std::uint64_t traces = 0; ///< number of served traces
};

/** One served trace in a ListResponse. */
struct TraceListEntry
{
    std::string name;          ///< request key for replay/sweep
    std::uint64_t fileBytes = 0;
    std::uint8_t resident = 0; ///< 1 when warm in the TraceStore
};

/** ReplayRequest: one model over one served trace. */
struct ReplayRequest
{
    std::string trace;
    std::string model = "dm";       ///< factory kind, or "opt"
    std::uint64_t sizeBytes = 32 * 1024;
    std::uint32_t lineBytes = 16;
    std::uint8_t stickyMax = 1;
    std::uint8_t lastLine = 0;
    std::uint32_t victimEntries = 0;
    std::uint32_t deadlineMs = 0;   ///< 0 = no deadline
};

/** ReplayResponse: the model's stats. */
struct ReplayResult
{
    std::string model; ///< resolved model name
    std::uint64_t refs = 0;
    CacheStats stats;
};

/** SweepRequest: a size axis over one served trace. */
struct SweepRequest
{
    std::string trace;
    std::uint32_t lineBytes = 4;
    std::uint8_t engine = 0;      ///< 1 = per-leg; 0 and 2 = kernel
    std::uint8_t stickyMax = 1;
    std::uint32_t deadlineMs = 0; ///< 0 = no deadline
    /**
     * Custom cache-size axis; empty = the paper's default axis. The
     * encoder omits the trailing block entirely when empty, so a
     * default-axis request is byte-identical to the pre-extension
     * layout, and old frames parse as the default axis. The server
     * validates a custom axis like a campaign does (powers of two,
     * strictly increasing, at most kMaxSweepAxisSizes entries).
     */
    std::vector<std::uint64_t> sizes;
};

/** One sweep point on the wire; doubles travel bit-exactly. */
struct SweepPointWire
{
    std::uint64_t sizeBytes = 0;
    std::uint8_t ok = 0;
    double dmMissPct = 0.0;
    double deMissPct = 0.0;
    double optMissPct = 0.0;
};

/** One failed leg on the wire. */
struct SweepFailureWire
{
    std::string bench;
    std::uint64_t sizeBytes = 0;
    std::string model;
    std::uint8_t code = 0; ///< StatusCode numeric
    std::string message;
};

/** SweepResponse: the whole outcome. */
struct SweepResult
{
    std::string trace;      ///< the trace's stored name
    std::uint64_t refs = 0; ///< references per replay
    std::vector<SweepPointWire> points;
    std::vector<SweepFailureWire> failures;
};

/**
 * Wire cap on uploaded references: 10 bytes each keeps the largest
 * put frame comfortably under kMaxPayloadBytes.
 */
inline constexpr std::uint64_t kMaxPutRefs = 6ull * 1024 * 1024;

/**
 * PutRequest: upload a trace by value so campaigns can sweep imported
 * workloads on a daemon that has no file for them. Records travel as
 * 10-byte (addr u64, type u8, size u8) tuples.
 */
struct PutTraceRequest
{
    std::string name;
    std::vector<MemRef> refs;
};

/** PutResponse: the stored identity (name echoed, count accepted). */
struct PutTraceResult
{
    std::string name;
    std::uint64_t refs = 0;
};

/** StatsResponse: ordered (name, value) counters. */
struct StatsResult
{
    std::vector<std::pair<std::string, std::uint64_t>> counters;
};

/** ErrorResponse: a Status on the wire. */
struct ErrorInfo
{
    std::uint8_t code = 0; ///< StatusCode numeric
    std::string message;
};

/** HelloRequest: the client's identity for per-client fairness. */
struct HelloInfo
{
    std::string clientId;
};

/**
 * BusyResponse: the shed hint. `retryAfterMs` of 0 means "no hint".
 * The payload is optional on the wire — pre-hint peers sent an empty
 * BUSY payload, which parses as retryAfterMs = 0, and old clients
 * that ignore the payload keep working against new servers.
 */
struct BusyInfo
{
    std::uint32_t retryAfterMs = 0;
};

std::string encodePingResponse(const PingInfo &info);
Result<PingInfo> parsePingResponse(std::string_view payload);

std::string encodeListResponse(const std::vector<TraceListEntry> &traces);
Result<std::vector<TraceListEntry>>
parseListResponse(std::string_view payload);

std::string encodeReplayRequest(const ReplayRequest &request);
Result<ReplayRequest> parseReplayRequest(std::string_view payload);

std::string encodeReplayResponse(const ReplayResult &result);
Result<ReplayResult> parseReplayResponse(std::string_view payload);

std::string encodeSweepRequest(const SweepRequest &request);
Result<SweepRequest> parseSweepRequest(std::string_view payload);

std::string encodeSweepResponse(const SweepResult &result);
Result<SweepResult> parseSweepResponse(std::string_view payload);

std::string encodePutRequest(const PutTraceRequest &request);
Result<PutTraceRequest> parsePutRequest(std::string_view payload);

std::string encodePutResponse(const PutTraceResult &result);
Result<PutTraceResult> parsePutResponse(std::string_view payload);

std::string encodeStatsResponse(const StatsResult &stats);
Result<StatsResult> parseStatsResponse(std::string_view payload);

std::string encodeErrorResponse(const Status &status);
Result<ErrorInfo> parseErrorResponse(std::string_view payload);

std::string encodeHelloRequest(const HelloInfo &hello);
Result<HelloInfo> parseHelloRequest(std::string_view payload);

std::string encodeBusyResponse(const BusyInfo &busy);
Result<BusyInfo> parseBusyResponse(std::string_view payload);

/** Rebuild a Status from a wire error (unknown codes map to Internal). */
Status statusFromWire(const ErrorInfo &error);

} // namespace server
} // namespace dynex

#endif // DYNEX_SERVER_PROTOCOL_H

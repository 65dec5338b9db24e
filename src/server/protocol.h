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
 * Message bodies: each body's layout is written once, as a field list
 * `template <class Wire> void wire(Wire &, Fields<Wire, Body> &)`.
 * WireWriter runs the list to encode a body (encodeBody) and
 * WireReader runs the same list to parse one (parseBody), so the two
 * sides cannot drift apart. Fields are fixed-width little-endian
 * integers, IEEE-754 doubles bit-cast to u64 (so simulation results
 * survive the wire bit-exactly), and u32 length-prefixed strings.
 */

#ifndef DYNEX_SERVER_PROTOCOL_H
#define DYNEX_SERVER_PROTOCOL_H

#include <bit>
#include <cstdint>
#include <string>
#include <string_view>
#include <type_traits>
#include <utility>
#include <vector>

#include "cache/stats.h"
#include "sim/sweep.h"
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

/** The type bit that marks a response. */
inline constexpr std::uint16_t kResponseBit = 0x8000;

/**
 * DXP1 message types. Requests have the top bit clear; the response
 * to a request is its type with kResponseBit set. visitMsgType() below
 * is the one list of them, with the body each carries.
 */
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

/** The response type that answers @p request. */
constexpr MsgType
responseTo(MsgType request)
{
    return static_cast<MsgType>(static_cast<std::uint16_t>(request) |
                                kResponseBit);
}

/** Stable lowercase name ("ping", "sweep", "error", ...). */
const char *msgTypeName(MsgType type);

/** @return true when @p type is a listed type with the top bit clear. */
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

// ---------------------------------------------------------------------
// The two runners of a field list.

/** A sequence count with no cap beyond what the payload can hold. */
inline constexpr std::uint64_t kUncapped = 0;

/** Little-endian body writer: appends each field a list names. */
class WireWriter
{
  public:
    static constexpr bool kReads = false;

    void u8(std::uint8_t v) { put(v, 1); }
    void u16(std::uint16_t v) { put(v, 2); }
    void u32(std::uint32_t v) { put(v, 4); }
    void u64(std::uint64_t v) { put(v, 8); }
    /** A one-byte enum (a reference kind). */
    template <class E>
        requires(std::is_enum_v<E> && sizeof(E) == 1)
    void u8(E v)
    {
        put(static_cast<std::uint8_t>(v), 1);
    }
    /** Bit-exact: the double's IEEE-754 image as a u64. */
    void f64(double v) { u64(std::bit_cast<std::uint64_t>(v)); }
    /** u32 length prefix + bytes. */
    void str(std::string_view v);

    /** A sequence's count, as an N-wide integer; the bounds are the
     * reader's. */
    template <class N>
    void count(N n, std::size_t, std::uint64_t, const char *)
    {
        put(n, sizeof(N));
    }
    /** The writer's sequences already have their size. */
    template <class V>
    void resize(const V &, std::size_t)
    {
    }
    /** An optional trailing block is written when @p present. */
    bool more(bool present) const { return present; }
    /** Checks guard the reader; the writer's message is never built. */
    template <class F>
    void check(bool, F &&)
    {
    }

    const std::string &bytes() const { return out; }
    std::string take() { return std::move(out); }

  private:
    void put(std::uint64_t v, std::size_t bytes);

    std::string out;
};

/**
 * Little-endian body parser over a borrowed buffer. Every read is
 * bounds-checked: reading past the end is CorruptInput, a string
 * length over kMaxWireStringBytes is ResourceLimit. The first failure
 * sticks and every later read leaves its field untouched, so a field
 * list runs straight through; finish() reports that failure, or
 * CorruptInput when bytes are left over.
 */
class WireReader
{
  public:
    static constexpr bool kReads = true;

    explicit WireReader(std::string_view bytes) : data(bytes) {}

    void u8(std::uint8_t &v) { take(v, "u8"); }
    void u16(std::uint16_t &v) { take(v, "u16"); }
    void u32(std::uint32_t &v) { take(v, "u32"); }
    void u64(std::uint64_t &v) { take(v, "u64"); }
    template <class E>
        requires(std::is_enum_v<E> && sizeof(E) == 1)
    void u8(E &v)
    {
        take(v, "u8");
    }
    void f64(double &v)
    {
        std::uint64_t image = std::bit_cast<std::uint64_t>(v);
        u64(image);
        v = std::bit_cast<double>(image);
    }
    void str(std::string &v);

    /**
     * Read a sequence's count into @p n (an N-wide integer). A count
     * over @p cap (unless kUncapped) is ResourceLimit; a count the
     * payload cannot hold at @p min_bytes_each bytes an element is
     * CorruptInput, caught before anything is sized by it. @p n is 0
     * once the reader has failed.
     */
    template <class N>
    void count(N &n, std::size_t min_bytes_each, std::uint64_t cap,
               const char *what)
    {
        take(n, sizeof(N) == 4 ? "u32" : "u64");
        if (!admitCount(n, min_bytes_each, cap, what))
            n = 0;
    }
    template <class V>
    void resize(V &items, std::size_t n)
    {
        items.resize(n);
    }
    /** An optional trailing block is present when bytes remain. */
    bool more(bool) const { return remaining() > 0; }
    /** Fail with CorruptInput("DXP1: " + @p message()) unless @p ok. */
    template <class F>
    void check(bool ok, F &&message)
    {
        if (!ok && failure.ok())
            fail(Status::corruptInput("DXP1: " + message()));
    }

    /** The first failure, else CorruptInput for unconsumed bytes. */
    Status finish() const;

    std::size_t remaining() const { return data.size() - at; }

  private:
    /** Read sizeof(T) little-endian bytes into @p v. */
    template <class T>
    void take(T &v, const char *what)
    {
        if (remaining() < sizeof(T)) {
            truncated(what);
            return;
        }
        std::uint64_t got = 0;
        for (std::size_t i = 0; i < sizeof(T); ++i)
            got |= static_cast<std::uint64_t>(
                       static_cast<unsigned char>(data[at + i]))
                   << (8 * i);
        at += sizeof(T);
        v = static_cast<T>(got);
    }
    void truncated(const char *what);
    bool admitCount(std::uint64_t n, std::size_t min_bytes_each,
                    std::uint64_t cap, const char *what);
    /** Keep @p status if it is the first failure; read no further. */
    void fail(Status status);

    std::string_view data;
    std::size_t at = 0;
    Status failure;
};

/** A body as a field list sees it: read-only to the writer, filled in
 * by the reader. */
template <class Wire, class M>
using Fields = std::conditional_t<Wire::kReads, M, const M>;

// ---------------------------------------------------------------------
// Message bodies, each followed by its field list.

/** The body of ping, list and stats requests and hello responses. */
struct NoBody
{
};

template <class Wire>
void
wire(Wire &, Fields<Wire, NoBody> &)
{
}

/** PingResponse: the server's identity. */
struct PingInfo
{
    std::string version;   ///< DXVER: versionString() of the server
    std::uint64_t traces = 0; ///< number of served traces
};

template <class Wire>
void
wire(Wire &w, Fields<Wire, PingInfo> &info)
{
    w.str(info.version);
    w.u64(info.traces);
}

/** One served trace in a ListResponse. */
struct TraceListEntry
{
    std::string name;          ///< request key for replay/sweep
    std::uint64_t fileBytes = 0;
    std::uint8_t resident = 0; ///< 1 when warm in the TraceStore
};

/** ListResponse: every served trace. */
template <class Wire>
void
wire(Wire &w, Fields<Wire, std::vector<TraceListEntry>> &traces)
{
    auto n = static_cast<std::uint32_t>(traces.size());
    w.count(n, 13, kUncapped, "list");
    w.resize(traces, n);
    for (auto &entry : traces) {
        w.str(entry.name);
        w.u64(entry.fileBytes);
        w.u8(entry.resident);
    }
}

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

template <class Wire>
void
wire(Wire &w, Fields<Wire, ReplayRequest> &request)
{
    w.str(request.trace);
    w.str(request.model);
    w.u64(request.sizeBytes);
    w.u32(request.lineBytes);
    w.u8(request.stickyMax);
    w.u8(request.lastLine);
    w.u32(request.victimEntries);
    w.u32(request.deadlineMs);
}

template <class Wire>
void
wire(Wire &w, Fields<Wire, CacheStats> &stats)
{
    w.u64(stats.accesses);
    w.u64(stats.hits);
    w.u64(stats.misses);
    w.u64(stats.coldMisses);
    w.u64(stats.fills);
    w.u64(stats.bypasses);
    w.u64(stats.evictions);
}

/** ReplayResponse: the model's stats. */
struct ReplayResult
{
    std::string model; ///< resolved model name
    std::uint64_t refs = 0;
    CacheStats stats;
};

template <class Wire>
void
wire(Wire &w, Fields<Wire, ReplayResult> &result)
{
    w.str(result.model);
    w.u64(result.refs);
    wire(w, result.stats);
}

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

template <class Wire>
void
wire(Wire &w, Fields<Wire, SweepRequest> &request)
{
    w.str(request.trace);
    w.u32(request.lineBytes);
    w.u8(request.engine);
    w.u8(request.stickyMax);
    w.u32(request.deadlineMs);
    // A default-axis request sends no axis block: old peers' layout.
    if (w.more(!request.sizes.empty())) {
        auto n = static_cast<std::uint32_t>(request.sizes.size());
        w.count(n, 8, kMaxSweepAxisSizes, "sweep axis");
        w.resize(request.sizes, n);
        for (auto &size : request.sizes)
            w.u64(size);
    }
    w.check(request.engine <= 2, [&] {
        return "bad replay engine " + std::to_string(request.engine);
    });
}

/** ErrorResponse: a Status on the wire. */
struct ErrorInfo
{
    std::uint8_t code = 0; ///< StatusCode numeric
    std::string message;
};

/** Rebuild a Status from a wire error (unknown codes map to Internal). */
Status statusFromWire(const ErrorInfo &error);

template <class Wire>
void
wire(Wire &w, Fields<Wire, ErrorInfo> &error)
{
    w.u8(error.code);
    w.str(error.message);
}

/** A Status travels as its ErrorInfo. */
template <class Wire>
void
wire(Wire &w, Fields<Wire, Status> &status)
{
    ErrorInfo error{static_cast<std::uint8_t>(status.code()),
                    status.message()};
    wire(w, error);
    if constexpr (Wire::kReads)
        status = statusFromWire(error);
}

/**
 * SweepResponse: the whole outcome. Each point travels as (sizeBytes
 * u64, ok u8, dm/de/opt miss percentages as bit-exact f64), each
 * failure as (bench, sizeBytes u64, model, StatusCode u8, message);
 * a failure parses back through statusFromWire.
 */
struct SweepResult
{
    std::string trace;      ///< the trace's stored name
    std::uint64_t refs = 0; ///< references per replay
    SizeSweepOutcome outcome;
};

template <class Wire>
void
wire(Wire &w, Fields<Wire, SweepResult> &result)
{
    w.str(result.trace);
    w.u64(result.refs);
    auto &outcome = result.outcome;
    auto points = static_cast<std::uint32_t>(outcome.points.size());
    w.count(points, 33, kUncapped, "point");
    w.resize(outcome.points, points);
    w.resize(outcome.ok, points);
    for (std::uint32_t p = 0; p < points; ++p) {
        auto &point = outcome.points[p];
        w.u64(point.sizeBytes);
        w.u8(outcome.ok[p]);
        w.f64(point.dmMissPct);
        w.f64(point.deMissPct);
        w.f64(point.optMissPct);
    }
    auto failures = static_cast<std::uint32_t>(outcome.failures.size());
    w.count(failures, 21, kUncapped, "failure");
    w.resize(outcome.failures, failures);
    for (auto &failure : outcome.failures) {
        w.str(failure.bench);
        w.u64(failure.sizeBytes);
        w.str(failure.model);
        wire(w, failure.status);
    }
}

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

template <class Wire>
void
wire(Wire &w, Fields<Wire, PutTraceRequest> &request)
{
    w.str(request.name);
    w.check(!request.name.empty(),
            [] { return std::string("empty put trace name"); });
    auto n = static_cast<std::uint64_t>(request.refs.size());
    w.count(n, 10, kMaxPutRefs, "put");
    w.resize(request.refs, n);
    for (std::uint64_t i = 0; i < n; ++i) {
        auto &ref = request.refs[i];
        w.u64(ref.addr);
        w.u8(ref.type);
        w.u8(ref.size);
        const auto kind = static_cast<unsigned>(ref.type);
        w.check(kind <= 2, [&] {
            return "put record " + std::to_string(i) +
                   ": unknown reference kind " + std::to_string(kind);
        });
        w.check(ref.size != 0, [&] {
            return "put record " + std::to_string(i) +
                   ": zero access size";
        });
    }
}

/** PutResponse: the stored identity (name echoed, count accepted). */
struct PutTraceResult
{
    std::string name;
    std::uint64_t refs = 0;
};

template <class Wire>
void
wire(Wire &w, Fields<Wire, PutTraceResult> &result)
{
    w.str(result.name);
    w.u64(result.refs);
}

/** StatsResponse: ordered (name, value) counters. */
struct StatsResult
{
    std::vector<std::pair<std::string, std::uint64_t>> counters;
};

template <class Wire>
void
wire(Wire &w, Fields<Wire, StatsResult> &stats)
{
    auto n = static_cast<std::uint32_t>(stats.counters.size());
    w.count(n, 12, kUncapped, "counter");
    w.resize(stats.counters, n);
    for (auto &[name, value] : stats.counters) {
        w.str(name);
        w.u64(value);
    }
}

/** HelloRequest: the client's identity for per-client fairness. */
struct HelloInfo
{
    std::string clientId;
};

template <class Wire>
void
wire(Wire &w, Fields<Wire, HelloInfo> &hello)
{
    w.str(hello.clientId);
}

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

template <class Wire>
void
wire(Wire &w, Fields<Wire, BusyInfo> &busy)
{
    // A pre-hint peer's empty BUSY payload parses as "no hint".
    if (w.more(true))
        w.u32(busy.retryAfterMs);
}

/** @p body's wire bytes. */
template <class M>
std::string
encodeBody(const M &body)
{
    WireWriter w;
    wire(w, body);
    return w.take();
}

/** @p payload parsed whole as an M body: its first failed read or
 * check, or CorruptInput when bytes are left over. */
template <class M>
Result<M>
parseBody(std::string_view payload)
{
    WireReader r(payload);
    M body;
    wire(r, body);
    if (Status s = r.finish(); !s.ok())
        return s;
    return body;
}

/** Names a body type for visitMsgType's callback. */
template <class M>
struct BodyTag
{
    using type = M;
};

/**
 * The one list of DXP1 message types: calls @p f(name, BodyTag<M>{})
 * with @p type's stable lowercase name and the body M it carries, or
 * f("unknown", BodyTag<void>{}) for a type not listed.
 */
template <class F>
auto
visitMsgType(MsgType type, F &&f)
{
    switch (type) {
      case MsgType::PingRequest: return f("ping", BodyTag<NoBody>{});
      case MsgType::ListRequest: return f("list", BodyTag<NoBody>{});
      case MsgType::ReplayRequest:
        return f("replay", BodyTag<ReplayRequest>{});
      case MsgType::SweepRequest:
        return f("sweep", BodyTag<SweepRequest>{});
      case MsgType::StatsRequest: return f("stats", BodyTag<NoBody>{});
      case MsgType::HelloRequest:
        return f("hello", BodyTag<HelloInfo>{});
      case MsgType::PutRequest:
        return f("put", BodyTag<PutTraceRequest>{});
      case MsgType::PingResponse:
        return f("ping-ok", BodyTag<PingInfo>{});
      case MsgType::ListResponse:
        return f("list-ok", BodyTag<std::vector<TraceListEntry>>{});
      case MsgType::ReplayResponse:
        return f("replay-ok", BodyTag<ReplayResult>{});
      case MsgType::SweepResponse:
        return f("sweep-ok", BodyTag<SweepResult>{});
      case MsgType::StatsResponse:
        return f("stats-ok", BodyTag<StatsResult>{});
      case MsgType::HelloResponse:
        return f("hello-ok", BodyTag<NoBody>{});
      case MsgType::PutResponse:
        return f("put-ok", BodyTag<PutTraceResult>{});
      case MsgType::ErrorResponse:
        return f("error", BodyTag<ErrorInfo>{});
      case MsgType::BusyResponse: return f("busy", BodyTag<BusyInfo>{});
    }
    return f("unknown", BodyTag<void>{});
}

} // namespace server
} // namespace dynex

#endif // DYNEX_SERVER_PROTOCOL_H

/**
 * @file
 * DXP1 client: a small blocking connection to a dynex simulation
 * server. One Client wraps one TCP connection; calls are synchronous
 * request/response pairs. An ERROR frame from the server comes back
 * as the Status it carries; a BUSY frame comes back as a Busy status
 * carrying the server's retryAfterMs hint.
 *
 * Resilience: setRetryPolicy() arms transparent retries with
 * exponential backoff and full jitter. An attempt is retried when the
 * failure is plausibly transient — a BUSY shed, a transport fault
 * (truncated frame, dropped connection, failed write), or a server
 * IoError (e.g. an injected trace-load failure, which the server
 * never caches) — and never when the request itself is at fault
 * (CorruptInput, ResourceLimit, DeadlineExceeded, Internal). The
 * sleep before attempt n is max(server hint, uniform[0, backoff *
 * 2^n]), clamped so the total spent never exceeds the retry budget.
 * A response obtained after retries is byte-identical to one from a
 * single successful attempt — retries re-send the identical request
 * frame and the server's handlers are deterministic.
 *
 * Tracing: setTracing(true) makes every call mint a fresh 64-bit
 * trace id, carry it in the request frame (the DXP1 trace-id flag;
 * see protocol.h), and record a client-side "rpc" span per attempt
 * tagged with the id. The server tags its own spans with the same id,
 * so `dynex_cli trace-merge` can stitch both sides into one timeline.
 * Retries of one logical call share one id. Tracing off (the default)
 * sends legacy flags=0 frames, byte-identical to older clients.
 */

#ifndef DYNEX_SERVER_CLIENT_H
#define DYNEX_SERVER_CLIENT_H

#include <cstdint>
#include <string>
#include <vector>

#include "server/protocol.h"
#include "util/rng.h"
#include "util/status.h"

namespace dynex
{
namespace server
{

/** How a Client retries failed calls. Default: no retries. */
struct RetryPolicy
{
    /** Additional attempts after the first (0 = fail fast). */
    unsigned retries = 0;
    /** Base backoff; attempt n sleeps uniform[0, backoffMs * 2^n],
     * floored by the server's retryAfterMs hint. */
    std::uint32_t backoffMs = 100;
    /** Total ms across attempts and sleeps (0 = unlimited). Maps to
     * the CLI's --deadline-ms. */
    std::uint32_t budgetMs = 0;
    /** Jitter seed, so tests can replay an exact retry schedule. */
    std::uint64_t seed = 0x1992'0519ull;
};

/** What the retry loop did, for load reports and tests. */
struct RetryStats
{
    std::uint64_t attempts = 0;          ///< request frames sent
    std::uint64_t retries = 0;           ///< attempts after the first
    std::uint64_t busyResponses = 0;     ///< BUSY sheds seen
    std::uint64_t transportFailures = 0; ///< reconnect-worthy faults
    std::uint64_t sleptMs = 0;           ///< total backoff slept
};

class Client
{
  public:
    Client() = default;
    ~Client();

    Client(const Client &) = delete;
    Client &operator=(const Client &) = delete;

    Client(Client &&other) noexcept { *this = std::move(other); }
    Client &operator=(Client &&other) noexcept
    {
        if (this != &other)
        {
            close();
            fd = other.fd;
            other.fd = -1;
            host = std::move(other.host);
            port = other.port;
            clientId = std::move(other.clientId);
            policy = other.policy;
            jitter = other.jitter;
            retryTally = other.retryTally;
            tracing = other.tracing;
            traceIds = other.traceIds;
            lastTrace = other.lastTrace;
        }
        return *this;
    }

    /** Connect to a server (loopback dotted-quad host). When a client
     * id is set, a hello identifying this client is sent first. */
    Status connect(const std::string &host, std::uint16_t port);

    /** Arm transparent retries for subsequent calls. */
    void setRetryPolicy(const RetryPolicy &retry_policy);

    /** Identity sent in the DXP1 hello for per-client fairness; takes
     * effect at the next connect/reconnect. */
    void setClientId(const std::string &client_id);

    /** Mint and send trace ids (and record client rpc spans) on every
     * subsequent call. @p seed fixes the id sequence for tests; 0
     * seeds from the monotonic clock so concurrent clients collide
     * with negligible probability. */
    void setTracing(bool enabled, std::uint64_t seed = 0);

    /** The trace id of the most recent traced call (0 before any). */
    std::uint64_t lastTraceId() const { return lastTrace; }

    const RetryStats &retryStats() const { return retryTally; }

    bool connected() const { return fd >= 0; }
    void close();

    Result<PingInfo> ping() { return call<PingInfo>(MsgType::PingRequest); }
    Result<std::vector<TraceListEntry>> list()
    {
        return call<std::vector<TraceListEntry>>(MsgType::ListRequest);
    }
    Result<ReplayResult> replay(const ReplayRequest &request)
    {
        return call<ReplayResult>(MsgType::ReplayRequest,
                                  encodeBody(request));
    }
    Result<SweepResult> sweep(const SweepRequest &request)
    {
        return call<SweepResult>(MsgType::SweepRequest,
                                 encodeBody(request));
    }
    Result<StatsResult> stats()
    {
        return call<StatsResult>(MsgType::StatsRequest);
    }
    /** Upload a trace by value for subsequent replay/sweep requests.
     * Uploads beyond kMaxPutRefs are rejected client-side. */
    Result<PutTraceResult> put(const PutTraceRequest &request);

  private:
    /** One request through the retry loop, its response parsed as an
     * M body. */
    template <class M>
    Result<M> call(MsgType request_type, std::string_view payload = {})
    {
        Result<std::string> response = exchange(request_type, payload);
        if (!response.ok())
            return response.status();
        return parseBody<M>(response.value());
    }

    /** One attempt: send, read one frame, unwrap ERROR / BUSY.
     * @p transport_failure flags faults that poison the connection
     * (the retry loop must reconnect before the next attempt). */
    Result<std::string> callOnce(MsgType type, std::string_view payload,
                                 std::uint64_t trace_id,
                                 bool &transport_failure);

    /** The retry loop around callOnce(), per the armed policy: the
     * payload of the response to a @p type request. */
    Result<std::string> exchange(MsgType type, std::string_view payload);

    /** (Re)establish the socket and send the hello. */
    Status reconnect();

    int fd = -1;
    std::string host;
    std::uint16_t port = 0;
    std::string clientId;
    RetryPolicy policy;
    Rng jitter{policy.seed};
    RetryStats retryTally;
    bool tracing = false;
    Rng traceIds{0};
    std::uint64_t lastTrace = 0;
};

} // namespace server
} // namespace dynex

#endif // DYNEX_SERVER_CLIENT_H

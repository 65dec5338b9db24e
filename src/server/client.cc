#include "server/client.h"

#include <algorithm>
#include <chrono>
#include <thread>

#include "obs/metrics.h"
#include "obs/trace_events.h"
#include "server/net.h"

namespace dynex
{
namespace server
{

namespace
{

std::uint64_t
elapsedMsSince(std::chrono::steady_clock::time_point start)
{
    return static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::milliseconds>(
            std::chrono::steady_clock::now() - start)
            .count());
}

} // namespace

Client::~Client() { close(); }

Status Client::connect(const std::string &server_host,
                       std::uint16_t server_port)
{
    host = server_host;
    port = server_port;
    return reconnect();
}

Status Client::reconnect()
{
    close();
    Result<int> sock = connectTcp(host, port);
    if (!sock.ok())
        return sock.status().withContext("dynex client");
    fd = sock.value();

    if (clientId.empty())
        return Status();
    // Identify ourselves for per-client fair admission. An old server
    // that predates hello answers ERROR(CorruptInput) — tolerate it,
    // the connection itself is fine.
    bool transport = false;
    Result<std::string> hello =
        callOnce(MsgType::HelloRequest, encodeBody(HelloInfo{clientId}), 0,
                 transport);
    if (!hello.ok() && transport)
    {
        const Status status = hello.status();
        close();
        return status.withContext("dynex client hello");
    }
    return Status();
}

void Client::setRetryPolicy(const RetryPolicy &retry_policy)
{
    policy = retry_policy;
    jitter = Rng(policy.seed);
}

void Client::setClientId(const std::string &client_id)
{
    clientId = client_id;
}

void Client::setTracing(bool enabled, std::uint64_t seed)
{
    tracing = enabled;
    if (enabled)
        traceIds = Rng(seed != 0 ? seed : obs::monotonicNs());
}

void Client::close()
{
    closeSocket(fd);
    fd = -1;
}

Result<std::string> Client::callOnce(MsgType type,
                                     std::string_view payload,
                                     std::uint64_t trace_id,
                                     bool &transport_failure)
{
    transport_failure = false;
    if (fd < 0)
    {
        transport_failure = true;
        return Status::ioError("not connected");
    }
    Status status = writeFrame(fd, type, payload, trace_id);
    if (!status.ok())
    {
        transport_failure = true;
        return status;
    }

    bool cleanEof = false;
    Result<Frame> frame = readFrame(fd, cleanEof);
    if (!frame.ok())
    {
        // A truncated or corrupt frame means framing is lost: the
        // next attempt needs a fresh connection.
        transport_failure = true;
        return frame.status();
    }
    if (cleanEof)
    {
        transport_failure = true;
        return Status::ioError("server closed the connection");
    }

    const Frame &response = frame.value();
    if (response.type == MsgType::BusyResponse)
    {
        Result<BusyInfo> busy = parseBody<BusyInfo>(response.payload);
        if (!busy.ok())
            return busy.status().withContext("undecodable busy frame");
        return Status::busy("server busy; retry later",
                            busy.value().retryAfterMs);
    }
    if (response.type == MsgType::ErrorResponse)
    {
        Result<ErrorInfo> error = parseBody<ErrorInfo>(response.payload);
        if (!error.ok())
            return error.status().withContext("undecodable error frame");
        return statusFromWire(error.value());
    }
    const MsgType expected = responseTo(type);
    if (response.type != expected)
        return Status::corruptInput(
            std::string("expected ") + msgTypeName(expected) +
            " response, got " + msgTypeName(response.type));
    return response.payload;
}

Result<std::string> Client::exchange(MsgType type,
                                     std::string_view payload)
{
    if (fd < 0 && host.empty())
        return Status::ioError("not connected");
    // One id per logical call: retries re-send it, so the merged
    // timeline shows every attempt of a request under one trace.
    std::uint64_t traceId = 0;
    if (tracing)
    {
        do
            traceId = traceIds.next();
        while (traceId == 0);
        lastTrace = traceId;
    }
    const auto start = std::chrono::steady_clock::now();
    Status last;
    for (unsigned attempt = 0;; ++attempt)
    {
        if (fd < 0 && !host.empty())
        {
            const Status conn = reconnect();
            if (!conn.ok())
                last = conn;
        }

        if (fd >= 0)
        {
            ++retryTally.attempts;
            bool transport = false;
            const obs::Phase attempt("rpc", msgTypeName(type),
                                     {.traceId = traceId});
            Result<std::string> result =
                callOnce(type, payload, traceId, transport);
            if (result.ok())
                return result;
            last = result.status();
            if (transport)
            {
                ++retryTally.transportFailures;
                close();
            }
            if (last.code() == StatusCode::Busy)
                ++retryTally.busyResponses;
            // Transport faults (truncated frame, dropped connection)
            // surface as CorruptInput/IoError but are retryable on a
            // fresh connection regardless of code.
            if (!transport && !isRetryableCode(last.code()))
                return last;
        }

        if (attempt >= policy.retries)
            return last;

        // Exponential backoff with full jitter, floored by the
        // server's own hint when it gave one.
        const unsigned shift = std::min(attempt, 16u);
        const std::uint64_t cap =
            static_cast<std::uint64_t>(policy.backoffMs) << shift;
        std::uint64_t waitMs = cap == 0 ? 0 : jitter.nextBelow(cap + 1);
        waitMs = std::max<std::uint64_t>(waitMs, last.retryAfterMs());

        if (policy.budgetMs > 0)
        {
            const std::uint64_t spent = elapsedMsSince(start);
            if (spent >= policy.budgetMs)
                return last;
            waitMs = std::min<std::uint64_t>(waitMs,
                                             policy.budgetMs - spent);
        }
        if (waitMs > 0)
        {
            std::this_thread::sleep_for(
                std::chrono::milliseconds(waitMs));
            retryTally.sleptMs += waitMs;
        }
        ++retryTally.retries;
    }
}

Result<PutTraceResult> Client::put(const PutTraceRequest &request)
{
    // Reject an over-cap upload client-side; the frame would be
    // bounced by the server's payload cap anyway.
    if (request.refs.size() > kMaxPutRefs)
        return Status::resourceLimit(
            "put of " + std::to_string(request.refs.size()) +
            " refs exceeds the wire cap of " +
            std::to_string(kMaxPutRefs));
    return call<PutTraceResult>(MsgType::PutRequest, encodeBody(request));
}

} // namespace server
} // namespace dynex

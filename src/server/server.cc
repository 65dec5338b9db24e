#include "server/server.h"

#include <chrono>
#include <utility>

#include <poll.h>
#include <sys/socket.h>

#include "cache/factory.h"
#include "cache/optimal.h"
#include "cache/victim.h"
#include "obs/log.h"
#include "obs/metrics.h"
#include "obs/trace_events.h"
#include "server/net.h"
#include "sim/runner.h"
#include "sim/sweep.h"
#include "sim/workloads.h"
#include "trace/text_io.h"
#include "trace/trace_io.h"
#include "tracegen/spec.h"
#include "util/bitops.h"
#include "util/string_utils.h"
#include "util/thread_pool.h"
#include "util/version.h"

namespace dynex
{
namespace server
{

namespace
{

/** Poll interval for the listener / worker wakeup checks. */
constexpr std::uint32_t kWakeupMs = 200;

/** Uploaded traces key into the TraceStore as "put:<name>#v<N>". */
bool isPutKey(const std::string &key)
{
    return key.rfind("put:", 0) == 0;
}

/** The raw upload name inside a put store key. */
std::string putNameOf(const std::string &key)
{
    std::string name = key.substr(4);
    const auto version = name.rfind("#v");
    if (version != std::string::npos)
        name.resize(version);
    return name;
}

/** The listed size of an uploaded trace: its wire footprint (10 bytes
 * per reference), as a file-backed trace lists its on-disk size. */
std::uint64_t putWireBytes(std::uint64_t refs)
{
    return 10 * refs;
}

bool validModel(const std::string &model)
{
    return iequals(model, "dm") || iequals(model, "dynex") ||
           iequals(model, "2way") || iequals(model, "4way") ||
           iequals(model, "8way") || iequals(model, "fa") ||
           iequals(model, "opt");
}

Status validGeometry(std::uint64_t size_bytes, std::uint32_t line_bytes)
{
    if (size_bytes == 0 || !isPowerOfTwo(size_bytes))
        return Status::corruptInput("cache size must be a power of two");
    if (line_bytes == 0 || !isPowerOfTwo(line_bytes))
        return Status::corruptInput("line size must be a power of two");
    if (line_bytes > size_bytes)
        return Status::corruptInput("line larger than cache");
    return Status();
}

void chargeActive(obs::Counter counter, std::uint64_t delta)
{
    if (obs::MetricsCollector *metrics = obs::activeMetrics())
        metrics->add(counter, delta);
}

/** Returns an admitted request's estimated cost to the budget on
 * every exit path of a handler. */
struct AdmissionRelease
{
    AdmissionController &controller;
    std::uint64_t costNs;
    ~AdmissionRelease() { controller.release(costNs); }
};

/** The end-to-end latency series for a request type. */
obs::Latency e2eSeries(MsgType type)
{
    switch (type)
    {
    case MsgType::PingRequest: return obs::Latency::E2ePing;
    case MsgType::ListRequest: return obs::Latency::E2eList;
    case MsgType::ReplayRequest: return obs::Latency::E2eReplay;
    case MsgType::SweepRequest: return obs::Latency::E2eSweep;
    case MsgType::StatsRequest: return obs::Latency::E2eStats;
    default: return obs::Latency::E2eHello;
    }
}

/** The response type of an already-encoded frame ("sweep-ok",
 * "error", "busy"), read straight from header bytes 4..5. */
const char *responseTypeName(const std::string &frame)
{
    if (frame.size() < kFrameHeaderBytes)
        return "unknown";
    const auto *raw =
        reinterpret_cast<const unsigned char *>(frame.data());
    const auto type = static_cast<MsgType>(
        static_cast<std::uint16_t>(raw[4]) |
        (static_cast<std::uint16_t>(raw[5]) << 8));
    return msgTypeName(type);
}

} // namespace

Server::Server(ServerConfig server_config)
    : config(std::move(server_config)),
      admission(config.admission),
      chaos(config.chaos, config.chaosSeed),
      traceStore(
          [this](const std::string &name) -> Result<TraceSource> {
              if (chaos.shouldFailLoad())
              {
                  // Failed loads are never cached, so a retrying
                  // client's next attempt reloads for real.
                  chargeActive(obs::Counter::ChaosLoadFail, 1);
                  return Status::ioError(
                      "chaos: injected load failure for '" + name +
                      "'");
              }
              if (isPutKey(name))
              {
                  std::shared_ptr<const Trace> uploaded =
                      findUploaded(putNameOf(name));
                  if (!uploaded)
                      return Status::corruptInput(
                          "unknown trace '" + putNameOf(name) + "'");
                  return TraceSource{"", std::move(uploaded), nullptr};
              }
              const ServedTrace *served = findServed(name);
              if (!served)
                  return Status::corruptInput("unknown trace '" + name +
                                              "'");
              if (served->path.empty())
              {
                  const Count refs = config.refs
                                         ? config.refs
                                         : Workloads::defaultRefs();
                  return TraceSource{"", nullptr, [name, refs] {
                                         return std::make_shared<const Trace>(
                                             Workloads::instructions(name,
                                                                     refs));
                                     }};
              }
              // A din text file has no block decoder to pack from.
              if (!isDinPath(served->path))
                  return TraceSource{served->path, nullptr, nullptr};
              return TraceSource{"", nullptr, [path = served->path] {
                                     Result<Trace> read =
                                         readAnyTraceFile(path);
                                     if (!read.ok())
                                         throw StatusError(read.status());
                                     return std::make_shared<const Trace>(
                                         std::move(read.value()));
                                 }};
          },
          config.storeBudgetBytes)
{
    if (config.workers == 0)
        config.workers = 1;
    if (config.queueCapacity == 0)
        config.queueCapacity = 1;
}

Server::~Server() { stop(); }

const ServedTrace *Server::findServed(const std::string &name) const
{
    for (const ServedTrace &served : config.traces)
        if (served.name == name)
            return &served;
    return nullptr;
}

std::shared_ptr<const Trace>
Server::findUploaded(const std::string &name,
                     std::uint64_t *version) const
{
    std::lock_guard<std::mutex> lock(uploadsMutex);
    const auto found = uploads.find(name);
    if (found == uploads.end())
        return nullptr;
    if (version)
        *version = found->second.version;
    return found->second.trace;
}

std::string Server::storeKeyFor(const std::string &name) const
{
    std::uint64_t version = 0;
    if (findUploaded(name, &version))
        return "put:" + name + "#v" + std::to_string(version);
    return name;
}

Status Server::start()
{
    Result<int> fd = listenTcp(config.port, boundPort);
    if (!fd.ok())
        return fd.status().withContext("dynex server");
    listenFd = fd.value();

    started = true;
    listener = std::thread([this] { listenerMain(); });
    workers.reserve(config.workers);
    for (unsigned w = 0; w < config.workers; ++w)
        workers.emplace_back([this] { workerMain(); });
    return Status();
}

void Server::stop()
{
    if (!started)
        return;
    stopping.store(true, std::memory_order_relaxed);
    queueCv.notify_all();
    if (listener.joinable())
        listener.join();
    for (std::thread &worker : workers)
        if (worker.joinable())
            worker.join();
    workers.clear();

    // Connections still queued were accepted but never served; close
    // them now that no worker will pick them up.
    std::lock_guard<std::mutex> lock(queueMutex);
    for (const PendingConn &conn : pending)
        closeSocket(conn.fd);
    pending.clear();

    closeSocket(listenFd);
    listenFd = -1;
    started = false;
}

void Server::listenerMain()
{
    while (!stopping.load(std::memory_order_relaxed))
    {
        pollfd waiter{};
        waiter.fd = listenFd;
        waiter.events = POLLIN;
        const int readable = ::poll(&waiter, 1, kWakeupMs);
        if (readable <= 0)
            continue;

        const int client = ::accept(listenFd, nullptr, nullptr);
        if (client < 0)
            continue;
        // Blocking reads on this socket wake up every kWakeupMs so a
        // draining worker can notice the stop flag.
        (void)setRecvTimeoutMs(client, kWakeupMs);

        std::unique_lock<std::mutex> lock(queueMutex);
        if (pending.size() >= config.queueCapacity)
        {
            lock.unlock();
            // Explicit backpressure: tell the client when to come
            // back, don't make it diagnose a silent close. The
            // connection itself cannot be kept (no worker will ever
            // pick it up), so this is the one BUSY that still closes.
            const std::uint32_t retryMs = admission.queueRetryAfterMs();
            (void)writeFrame(client, MsgType::BusyResponse,
                             encodeBusyResponse({retryMs}));
            closeSocket(client);
            std::lock_guard<std::mutex> tally(countersMutex);
            ++tallies.busy;
            chargeActive(obs::Counter::SrvBusy, 1);
            chargeActive(obs::Counter::SrvRetryAfterMs, retryMs);
            continue;
        }
        pending.push_back({client, obs::monotonicNs()});
        const std::uint64_t depth = pending.size();
        lock.unlock();
        queueCv.notify_one();

        std::lock_guard<std::mutex> tally(countersMutex);
        ++tallies.connections;
        if (depth > tallies.queueHighWater)
            tallies.queueHighWater = depth;
    }
}

void Server::workerMain()
{
    for (;;)
    {
        PendingConn conn;
        {
            std::unique_lock<std::mutex> lock(queueMutex);
            queueCv.wait(lock, [this] {
                return !pending.empty() ||
                       stopping.load(std::memory_order_relaxed);
            });
            if (pending.empty())
                return; // stopping and drained
            conn = pending.front();
            pending.pop_front();
        }
        const std::uint64_t waitNs = obs::monotonicNs() - conn.enqueueNs;
        recordLatency(obs::Latency::QueueWait, waitNs);
        serveConnection(conn.fd, waitNs);
        closeSocket(conn.fd);
    }
}

void Server::recordLatency(obs::Latency series, std::uint64_t ns)
{
    if (config.telemetry)
        latencies.record(series, ns);
}

void Server::serveConnection(int fd, std::uint64_t queue_wait_ns)
{
    std::string clientId = "anon";
    bool firstRequest = true;
    while (!stopping.load(std::memory_order_relaxed))
    {
        bool cleanEof = false;
        Result<Frame> frame = readFrame(fd, cleanEof, &stopping);
        if (cleanEof)
            return;
        if (!frame.ok())
        {
            // Framing is lost (bad header, bad CRC, truncation):
            // answer with a structured error, then close — the next
            // byte boundary is unknowable.
            const std::string error = errorFrame(frame.status());
            (void)writeAll(fd, error.data(), error.size());
            std::lock_guard<std::mutex> tally(countersMutex);
            tallies.bytesOut += error.size();
            chargeActive(obs::Counter::SrvBytesOut, error.size());
            return;
        }

        RequestContext ctx;
        ctx.arrivalNs = obs::monotonicNs();
        ctx.traceId = frame.value().traceId;
        if (firstRequest)
        {
            firstRequest = false;
            // The accept-queue wait happened before any request bytes
            // existed; attribute its span to the connection's first
            // request so the merged timeline shows it upstream of the
            // handling spans.
            if (config.telemetry && obs::Tracer::active())
            {
                obs::Tracer *tracer = obs::Tracer::active();
                const std::uint64_t endNs = tracer->nowNs();
                const std::uint64_t startNs =
                    endNs > queue_wait_ns ? endNs - queue_wait_ns : 0;
                tracer->complete("queue-wait", "srv", startNs,
                                 endNs - startNs, ctx.traceId);
            }
        }
        const std::uint64_t frameBytes = kFrameHeaderBytes +
                                         frame.value().payload.size() +
                                         kFrameTrailerBytes;
        {
            std::lock_guard<std::mutex> tally(countersMutex);
            tallies.bytesIn += frameBytes;
            ++tallies.requests;
        }
        chargeActive(obs::Counter::SrvBytesIn, frameBytes);
        chargeActive(obs::Counter::SrvRequests, 1);

        if (const std::uint32_t delayMs = chaos.delayBeforeHandleMs())
        {
            chargeActive(obs::Counter::ChaosDelay, 1);
            std::this_thread::sleep_for(
                std::chrono::milliseconds(delayMs));
        }

        const std::string response =
            handleRequest(frame.value(), ctx, clientId);
        finishRequest(frame.value(), ctx, clientId, response);
        {
            std::lock_guard<std::mutex> tally(countersMutex);
            tallies.bytesOut += response.size();
        }
        chargeActive(obs::Counter::SrvBytesOut, response.size());
        if (chaos.shouldTruncateResponse())
        {
            // Network fault: the peer sees a frame cut mid-payload
            // and must recover via its transport-retry path.
            chargeActive(obs::Counter::ChaosTrunc, 1);
            (void)writeAll(fd, response.data(), response.size() / 2);
            return;
        }
        if (!writeAll(fd, response.data(), response.size()).ok())
            return;
    }
}

void Server::finishRequest(const Frame &request,
                           const RequestContext &ctx,
                           const std::string &client_id,
                           const std::string &response)
{
    if (!config.telemetry || !isRequestType(request.type))
        return;
    const std::uint64_t e2eNs = obs::monotonicNs() - ctx.arrivalNs;
    recordLatency(e2eSeries(request.type), e2eNs);

    if (obs::Tracer *tracer = obs::Tracer::active())
    {
        const std::uint64_t endNs = tracer->nowNs();
        const std::uint64_t startNs =
            endNs > e2eNs ? endNs - e2eNs : 0;
        tracer->complete(msgTypeName(request.type), "srv", startNs,
                         endNs - startNs, ctx.traceId);
    }

    obs::Logger *logger = obs::Logger::active();
    if (!logger)
        return;
    const std::uint64_t e2eUs = e2eNs / 1000;
    const bool slow = config.slowRequestMs > 0 &&
                      e2eNs / 1000000 >= config.slowRequestMs;
    // The slow log rides the warn level so it bypasses rate limiting:
    // the pathological requests are exactly the ones that must not be
    // shed with the routine traffic.
    obs::LogLine line =
        logger->line(slow ? obs::LogLevel::Warn : obs::LogLevel::Info,
                     slow ? "slow-request" : "request");
    line.str("type", msgTypeName(request.type))
        .str("client", client_id)
        .u64("e2e-us", e2eUs)
        .str("outcome", responseTypeName(response))
        .u64("resp-bytes", response.size());
    if (ctx.traceId != 0)
        line.hex("trace", ctx.traceId);
    if (slow)
        line.u64("slow-ms-threshold", config.slowRequestMs);
}

std::string Server::errorFrame(const Status &status)
{
    {
        std::lock_guard<std::mutex> tally(countersMutex);
        ++tallies.errors;
        if (status.code() == StatusCode::DeadlineExceeded)
            ++tallies.deadlineExpirations;
    }
    chargeActive(obs::Counter::SrvErrors, 1);
    return encodeFrame(MsgType::ErrorResponse,
                       encodeErrorResponse(status));
}

std::string Server::busyFrame(std::uint32_t retry_after_ms)
{
    {
        std::lock_guard<std::mutex> tally(countersMutex);
        ++tallies.busy;
    }
    chargeActive(obs::Counter::SrvBusy, 1);
    chargeActive(obs::Counter::SrvShed, 1);
    chargeActive(obs::Counter::SrvRetryAfterMs, retry_after_ms);
    return encodeFrame(MsgType::BusyResponse,
                       encodeBusyResponse({retry_after_ms}));
}

Status Server::checkDeadline(std::uint64_t arrival_ns,
                             std::uint32_t deadline_ms)
{
    if (deadline_ms == 0)
        return Status();
    const std::uint64_t elapsedMs =
        (obs::monotonicNs() - arrival_ns) / 1000000;
    if (elapsedMs <= deadline_ms)
        return Status();
    return Status::deadlineExceeded("deadline of " +
                                    std::to_string(deadline_ms) +
                                    "ms exceeded");
}

std::uint64_t Server::estimateRefs(const std::string &trace_name) const
{
    // Uploaded traces are decoded in memory: the count is exact.
    if (std::shared_ptr<const Trace> uploaded =
            findUploaded(trace_name))
        return uploaded->size();
    const ServedTrace *served = findServed(trace_name);
    if (!served)
        return 0;
    if (served->path.empty())
        return config.refs ? config.refs : Workloads::defaultRefs();
    // File-backed: approximate refs from the encoded byte rate of the
    // format (~2 B/ref for DXT3, ~10 B/ref for DXT1/DXT2, ~12 B/line
    // for din text). Only the magnitude matters — the EWMA absorbs
    // the rest.
    const std::string &path = served->path;
    if (isDxt3Path(path))
        return served->fileBytes / 2;
    if (isDinPath(path))
        return served->fileBytes / 12;
    return served->fileBytes / 10;
}

std::string Server::handleRequest(const Frame &request,
                                  const RequestContext &ctx,
                                  std::string &client_id)
{
    if (!isRequestType(request.type))
        return errorFrame(Status::corruptInput(
            std::string("frame type '") + msgTypeName(request.type) +
            "' is not a request"));

    if (chaos.shouldForceBusy())
    {
        // Injected overload: answer exactly like an admission shed so
        // the client's retry path is exercised end to end.
        chargeActive(obs::Counter::ChaosBusy, 1);
        return busyFrame(config.admission.minRetryAfterMs);
    }

    if (config.testDelayBeforeExecuteMs > 0)
        std::this_thread::sleep_for(std::chrono::milliseconds(
            config.testDelayBeforeExecuteMs));

    switch (request.type)
    {
    case MsgType::PingRequest:
    {
        if (!request.payload.empty())
            return errorFrame(
                Status::corruptInput("ping carries no payload"));
        std::lock_guard<std::mutex> tally(countersMutex);
        ++tallies.pings;
        break;
    }
    case MsgType::ListRequest:
    {
        if (!request.payload.empty())
            return errorFrame(
                Status::corruptInput("list carries no payload"));
        std::lock_guard<std::mutex> tally(countersMutex);
        ++tallies.lists;
        break;
    }
    case MsgType::StatsRequest:
    {
        if (!request.payload.empty())
            return errorFrame(
                Status::corruptInput("stats carries no payload"));
        std::lock_guard<std::mutex> tally(countersMutex);
        ++tallies.stats;
        break;
    }
    default:
        break;
    }

    switch (request.type)
    {
    case MsgType::PingRequest:
        return handlePing();
    case MsgType::ListRequest:
        return handleList();
    case MsgType::StatsRequest:
        return handleStats();
    case MsgType::HelloRequest:
    {
        Result<HelloInfo> parsed = parseHelloRequest(request.payload);
        if (!parsed.ok())
            return errorFrame(
                parsed.status().withContext("hello request"));
        if (!parsed.value().clientId.empty())
            client_id = parsed.value().clientId;
        {
            std::lock_guard<std::mutex> tally(countersMutex);
            ++tallies.helloes;
        }
        return encodeFrame(MsgType::HelloResponse, {});
    }
    case MsgType::ReplayRequest:
    {
        Result<ReplayRequest> parsed =
            parseReplayRequest(request.payload);
        if (!parsed.ok())
            return errorFrame(
                parsed.status().withContext("replay request"));
        {
            std::lock_guard<std::mutex> tally(countersMutex);
            ++tallies.replays;
        }
        return handleReplay(parsed.value(), ctx, client_id);
    }
    case MsgType::SweepRequest:
    {
        Result<SweepRequest> parsed = parseSweepRequest(request.payload);
        if (!parsed.ok())
            return errorFrame(
                parsed.status().withContext("sweep request"));
        {
            std::lock_guard<std::mutex> tally(countersMutex);
            ++tallies.sweeps;
        }
        return handleSweep(parsed.value(), ctx, client_id);
    }
    case MsgType::PutRequest:
    {
        Result<PutTraceRequest> parsed = parsePutRequest(request.payload);
        if (!parsed.ok())
            return errorFrame(
                parsed.status().withContext("put request"));
        {
            std::lock_guard<std::mutex> tally(countersMutex);
            ++tallies.puts;
        }
        return handlePut(parsed.value());
    }
    default:
        return errorFrame(Status::internal("unhandled request type"));
    }
}

std::string Server::handlePing()
{
    PingInfo info;
    info.version = versionString();
    {
        std::lock_guard<std::mutex> lock(uploadsMutex);
        info.traces = config.traces.size() + uploads.size();
    }
    return encodeFrame(MsgType::PingResponse, encodePingResponse(info));
}

std::string Server::handleList()
{
    std::vector<TraceListEntry> entries;
    entries.reserve(config.traces.size());
    for (const ServedTrace &served : config.traces)
    {
        TraceListEntry entry;
        entry.name = served.name;
        entry.fileBytes = served.fileBytes;
        entry.resident = traceStore.resident(served.name) ? 1 : 0;
        entries.push_back(std::move(entry));
    }
    // Uploaded traces list after the spec's, at their wire footprint.
    // Snapshot the registry first: the store's residency check must
    // not run under the uploads lock (its resolver takes it).
    std::vector<std::pair<std::string, std::uint64_t>> uploaded;
    {
        std::lock_guard<std::mutex> lock(uploadsMutex);
        for (const auto &[name, entry] : uploads)
            uploaded.emplace_back(
                "put:" + name + "#v" + std::to_string(entry.version),
                putWireBytes(entry.trace->size()));
    }
    for (const auto &[key, bytes] : uploaded)
    {
        TraceListEntry entry;
        entry.name = putNameOf(key);
        entry.fileBytes = bytes;
        entry.resident = traceStore.resident(key) ? 1 : 0;
        entries.push_back(std::move(entry));
    }
    return encodeFrame(MsgType::ListResponse,
                       encodeListResponse(entries));
}

std::string Server::handlePut(const PutTraceRequest &request)
{
    if (request.refs.empty())
        return errorFrame(
            Status::corruptInput("put of an empty trace"));
    if (findServed(request.name))
        return errorFrame(Status::corruptInput(
            "trace '" + request.name +
            "' is already served from the spec"));
    auto trace = std::make_shared<Trace>(request.name);
    trace->reserve(request.refs.size());
    for (const MemRef &ref : request.refs)
        trace->append(ref);
    {
        std::lock_guard<std::mutex> lock(uploadsMutex);
        UploadedTrace &entry = uploads[request.name];
        entry.trace = std::move(trace);
        ++entry.version;
    }
    PutTraceResult result;
    result.name = request.name;
    result.refs = request.refs.size();
    return encodeFrame(MsgType::PutResponse,
                       encodePutResponse(result));
}

std::string Server::handleStats()
{
    return encodeFrame(MsgType::StatsResponse,
                       encodeStatsResponse(StatsResult{statsRows()}));
}

std::string Server::handleReplay(const ReplayRequest &request,
                                 const RequestContext &ctx,
                                 const std::string &client_id)
{
    if (!validModel(request.model))
        return errorFrame(Status::corruptInput("unknown model '" +
                                               request.model + "'"));
    const Status geometry =
        validGeometry(request.sizeBytes, request.lineBytes);
    if (!geometry.ok())
        return errorFrame(geometry);
    Status deadline = checkDeadline(ctx.arrivalNs, request.deadlineMs);
    if (!deadline.ok())
        return errorFrame(deadline);

    const std::uint64_t admitStartNs = obs::monotonicNs();
    const AdmissionDecision ticket =
        admission.admit(client_id, WorkKind::Replay,
                        estimateRefs(request.trace), 1, admitStartNs);
    recordLatency(obs::Latency::Admission,
                  obs::monotonicNs() - admitStartNs);
    if (!ticket.admitted)
        return busyFrame(ticket.retryAfterMs);
    chargeActive(obs::Counter::SrvAdmitted, 1);
    const AdmissionRelease released{admission, ticket.costNs};
    const std::uint64_t startNs = obs::monotonicNs();

    const bool wantsOptimal = iequals(request.model, "opt");
    const std::string key = storeKeyFor(request.trace);
    std::shared_ptr<const Trace> trace;
    std::shared_ptr<const ReplayArtifact> artifact;
    {
        obs::ScopedSpan span("srv", "store-load", ctx.traceId);
        const std::uint64_t loadStartNs = obs::monotonicNs();
        Result<std::shared_ptr<const Trace>> loaded = traceStore.trace(key);
        if (!loaded.ok())
            return errorFrame(loaded.status());
        trace = std::move(loaded.value());
        if (wantsOptimal)
        {
            Result<std::shared_ptr<const ReplayArtifact>> warm =
                traceStore.artifact(key, request.lineBytes);
            if (!warm.ok())
                return errorFrame(warm.status());
            artifact = std::move(warm.value());
        }
        recordLatency(obs::Latency::StoreLoad,
                      obs::monotonicNs() - loadStartNs);
    }

    // The load may have been the slow part; a replay that starts is
    // never aborted, so this is the last checkpoint.
    deadline = checkDeadline(ctx.arrivalNs, request.deadlineMs);
    if (!deadline.ok())
        return errorFrame(deadline);

    const auto geo = CacheGeometry::directMapped(request.sizeBytes,
                                                 request.lineBytes);
    std::unique_ptr<CacheModel> cache;
    if (wantsOptimal)
    {
        cache = std::make_unique<OptimalDirectMappedCache>(
            geo, artifact->index(), true);
    }
    else if (request.victimEntries > 0 && iequals(request.model, "dm"))
    {
        cache =
            std::make_unique<VictimCache>(geo, request.victimEntries);
    }
    else
    {
        DynamicExclusionConfig modelConfig;
        modelConfig.stickyMax = request.stickyMax;
        modelConfig.useLastLine = request.lastLine != 0;
        cache = makeCache(request.model, geo, modelConfig);
    }

    ReplayResult result;
    {
        obs::ScopedSpan span("srv", "replay", ctx.traceId);
        const std::uint64_t replayStartNs = obs::monotonicNs();
        result.stats = runTrace(*cache, *trace);
        recordLatency(obs::Latency::Replay,
                      obs::monotonicNs() - replayStartNs);
    }
    result.model = cache->name();
    result.refs = trace->size();
    admission.recordServiced(WorkKind::Replay, trace->size(), 1,
                             obs::monotonicNs() - startNs);
    const std::uint64_t encodeStartNs = obs::monotonicNs();
    obs::ScopedSpan span("srv", "serialize", ctx.traceId);
    std::string frame = encodeFrame(MsgType::ReplayResponse,
                                    encodeReplayResponse(result));
    recordLatency(obs::Latency::Serialize,
                  obs::monotonicNs() - encodeStartNs);
    return frame;
}

std::string Server::handleSweep(const SweepRequest &request,
                                const RequestContext &ctx,
                                const std::string &client_id)
{
    // Empty = the paper's default axis; a custom axis gets the same
    // validation a campaign spec does.
    const std::vector<std::uint64_t> &axis =
        request.sizes.empty() ? paperCacheSizes() : request.sizes;
    if (!request.sizes.empty())
    {
        const Status valid =
            validateSweepAxis(request.sizes, request.lineBytes);
        if (!valid.ok())
            return errorFrame(valid);
    }
    const Status geometry =
        validGeometry(axis.back(), request.lineBytes);
    if (!geometry.ok())
        return errorFrame(geometry);
    if (request.engine > 2)
        return errorFrame(
            Status::corruptInput("unknown replay engine"));
    Status deadline = checkDeadline(ctx.arrivalNs, request.deadlineMs);
    if (!deadline.ok())
        return errorFrame(deadline);

    // A sweep replays three models at every axis size.
    const WorkKind kind = sweepWorkKind(request.engine);
    const std::uint64_t legs = 3 * axis.size();
    const std::uint64_t admitStartNs = obs::monotonicNs();
    const AdmissionDecision ticket =
        admission.admit(client_id, kind, estimateRefs(request.trace),
                        legs, admitStartNs);
    recordLatency(obs::Latency::Admission,
                  obs::monotonicNs() - admitStartNs);
    if (!ticket.admitted)
        return busyFrame(ticket.retryAfterMs);
    chargeActive(obs::Counter::SrvAdmitted, 1);
    const AdmissionRelease released{admission, ticket.costNs};
    const std::uint64_t startNs = obs::monotonicNs();

    // A kernel sweep needs only the store's artifact; the per-leg
    // engine replays the object models over the Trace, so it takes the
    // Trace from the store and packs its own artifact for the call.
    const bool perLeg = request.engine == 1;
    const std::string key = storeKeyFor(request.trace);
    std::shared_ptr<const Trace> trace;
    std::shared_ptr<const ReplayArtifact> artifact;
    {
        obs::ScopedSpan span("srv", "store-load", ctx.traceId);
        const std::uint64_t loadStartNs = obs::monotonicNs();
        Status loaded;
        if (perLeg)
        {
            Result<std::shared_ptr<const Trace>> warm = traceStore.trace(key);
            loaded = warm.status();
            if (warm.ok())
                trace = std::move(warm.value());
        }
        else
        {
            Result<std::shared_ptr<const ReplayArtifact>> warm =
                traceStore.artifact(key, request.lineBytes);
            loaded = warm.status();
            if (warm.ok())
                artifact = std::move(warm.value());
        }
        recordLatency(obs::Latency::StoreLoad,
                      obs::monotonicNs() - loadStartNs);
        if (!loaded.ok())
            return errorFrame(loaded);
    }

    deadline = checkDeadline(ctx.arrivalNs, request.deadlineMs);
    if (!deadline.ok())
        return errorFrame(deadline);

    // Mirror the CLI's sweep configuration exactly: responses must be
    // byte-identical to a local `dynex sweep` of the same trace.
    DynamicExclusionConfig sweepConfig;
    sweepConfig.stickyMax = request.stickyMax;
    sweepConfig.useLastLine = request.lineBytes > 4;
    SweepResult result;
    result.outcome = [&] {
        obs::ScopedSpan span("srv", "replay", ctx.traceId);
        const std::uint64_t replayStartNs = obs::monotonicNs();
        // Engine byte 0, the retired batched engine, runs the kernel.
        SizeSweepOutcome swept =
            perLeg ? sweepSizes(*trace, axis, request.lineBytes,
                                sweepConfig, ReplayEngine::PerLeg)
                   : sweepSizes(*artifact, axis, sweepConfig);
        recordLatency(obs::Latency::Replay,
                      obs::monotonicNs() - replayStartNs);
        return swept;
    }();

    // The trace's own name, as a local sweep of it reports.
    result.trace = perLeg ? trace->name() : artifact->name();
    result.refs = perLeg ? trace->size() : artifact->refs();
    admission.recordServiced(kind, result.refs, legs,
                             obs::monotonicNs() - startNs);
    const std::uint64_t encodeStartNs = obs::monotonicNs();
    obs::ScopedSpan span("srv", "serialize", ctx.traceId);
    std::string frame = encodeFrame(MsgType::SweepResponse,
                                    encodeSweepResponse(result));
    recordLatency(obs::Latency::Serialize,
                  obs::monotonicNs() - encodeStartNs);
    return frame;
}

ServerCounters Server::counters() const
{
    std::lock_guard<std::mutex> lock(countersMutex);
    return tallies;
}

std::vector<std::pair<std::string, std::uint64_t>>
Server::statsRows() const
{
    const ServerCounters server = counters();
    const TraceStore::Counters store = traceStore.counters();
    const AdmissionController::Counters admit = admission.counters();
    const ChaosInjector::Counters faults = chaos.counters();
    std::vector<std::pair<std::string, std::uint64_t>> rows = {
        {"requests", server.requests},
        {"errors", server.errors},
        {"busy", server.busy},
        {"bytes-in", server.bytesIn},
        {"bytes-out", server.bytesOut},
        {"connections", server.connections},
        {"queue-high-water", server.queueHighWater},
        {"pings", server.pings},
        {"lists", server.lists},
        {"replays", server.replays},
        {"sweeps", server.sweeps},
        {"helloes", server.helloes},
        {"puts", server.puts},
        {"deadline-expirations", server.deadlineExpirations},
        {"admitted", admit.admitted},
        {"shed", admit.shed},
        {"retry-after-ms", admit.retryAfterMsTotal},
        {"chaos-busy", faults.busy},
        {"chaos-truncations", faults.truncations},
        {"chaos-delays", faults.delays},
        {"chaos-load-failures", faults.loadFailures},
        {"store-trace-hits", store.traceHits},
        {"store-trace-misses", store.traceMisses},
        {"store-trace-loads", store.traceLoads},
        {"store-load-failures", store.loadFailures},
        {"store-index-hits", store.indexHits},
        {"store-index-builds", store.indexBuilds},
        {"store-single-flight-waits", store.singleFlightWaits},
        {"store-evictions", store.evictions},
        {"store-resident-bytes", store.residentBytes},
        {"store-artifact-bytes", store.artifactBytes},
        {"store-entries", store.entries},
    };
    if (config.telemetry)
        latencies.appendStatsRows(rows);
    return rows;
}

} // namespace server
} // namespace dynex

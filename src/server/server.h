/**
 * @file
 * The dynex simulation server: a concurrent TCP service that answers
 * DXP1 requests (ping / list / replay / sweep / stats / put) over a
 * set of served traces, so one warm process can serve many sweeps
 * without re-reading or re-indexing anything. PUT uploads a trace by
 * value (campaigns ship imported workloads this way); uploads live in
 * a versioned registry beside the spec's traces and are simulated
 * through the same TraceStore path.
 *
 * Architecture:
 *   - one listener thread accepts connections and pushes them onto a
 *     bounded queue; when the queue is full the connection is answered
 *     with a BUSY frame and closed immediately (explicit backpressure,
 *     never an unbounded backlog);
 *   - N connection workers pop sockets and answer requests until the
 *     peer closes. Simulation work inside a request additionally fans
 *     out on the process-wide ThreadPool, so sweep responses are
 *     bit-identical to local runs at any worker count;
 *   - replay artifacts (packed view plus next-use index) live in a
 *     byte-budgeted LRU TraceStore shared by all workers
 *     (single-flight loading); a trace's decoded Trace is loaded into
 *     it only for replays and per-leg sweeps.
 *
 * Failure policy: a malformed, truncated, or CRC-corrupt frame is
 * answered with a structured ERROR frame (then the connection closes,
 * since framing is lost); a well-framed but invalid request gets an
 * ERROR frame and the connection stays open. The server process never
 * crashes on bad input.
 *
 * Deadlines: a request carrying deadlineMs > 0 is checked at cheap
 * checkpoints (after parse, after the trace is loaded); an expired
 * deadline yields ERROR(DeadlineExceeded). A replay that already
 * started is never aborted mid-flight.
 *
 * Admission: replay and sweep requests pass cost-based admission
 * control before any work runs (see admission.h). A shed request is
 * answered with a BUSY frame carrying a retryAfterMs hint — and the
 * connection stays open, so a well-behaved client backs off and
 * retries on the same socket. Seeded chaos injection (chaos.h) can
 * additionally fault the request path for resilience testing.
 *
 * Shutdown: stop() (or the serve tool's SIGINT/SIGTERM handler) stops
 * accepting, lets each worker finish the request in flight, then
 * closes every connection and joins.
 */

#ifndef DYNEX_SERVER_SERVER_H
#define DYNEX_SERVER_SERVER_H

#include <array>
#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "obs/histogram.h"
#include "server/admission.h"
#include "server/chaos.h"
#include "server/protocol.h"
#include "server/trace_store.h"
#include "util/status.h"
#include "util/types.h"

namespace dynex
{
namespace server
{

/** One trace the server is willing to simulate. */
struct ServedTrace
{
    std::string name; ///< request key (benchmark or file stem)
    std::string path; ///< empty = synthetic suite benchmark
    std::uint64_t fileBytes = 0; ///< on-disk size (0 for synthetic)
};

struct ServerConfig
{
    std::uint16_t port = 0; ///< 0 = pick an ephemeral port
    unsigned workers = 1;   ///< connection worker threads
    std::size_t queueCapacity = 16; ///< accepted-connection backlog
    std::uint64_t storeBudgetBytes = 1ull << 30; ///< TraceStore budget
    Count refs = 0; ///< synthetic refs per benchmark (0 = default)
    std::vector<ServedTrace> traces;
    /** Cost-based admission control (see admission.h). */
    AdmissionConfig admission;
    /** Seeded fault injection, off unless the spec sets a
     * probability (see chaos.h). */
    ChaosSpec chaos;
    std::uint64_t chaosSeed = 1992;
    /** Test hook: sleep this long after parsing each request, so a
     * deadline test can expire a deadline deterministically. */
    std::uint32_t testDelayBeforeExecuteMs = 0;
    /** Latency histograms, per-request spans, and structured request
     * logs. Off leaves only the flat counters (the A/B the overhead
     * gate in BENCH_sweep.json measures). */
    bool telemetry = true;
    /** Requests slower than this end-to-end get a warn-level slow-log
     * line (exempt from the logger's rate limit). 0 disables. */
    std::uint32_t slowRequestMs = 0;
};

/** Aggregated server activity, for STATS responses and run reports. */
struct ServerCounters
{
    std::uint64_t requests = 0; ///< well-framed requests answered
    std::uint64_t errors = 0;   ///< ERROR frames sent
    std::uint64_t busy = 0;     ///< BUSY rejections
    std::uint64_t bytesIn = 0;
    std::uint64_t bytesOut = 0;
    std::uint64_t connections = 0;
    std::uint64_t queueHighWater = 0;
    std::uint64_t pings = 0;
    std::uint64_t lists = 0;
    std::uint64_t replays = 0;
    std::uint64_t sweeps = 0;
    std::uint64_t stats = 0;
    std::uint64_t helloes = 0;
    std::uint64_t puts = 0;     ///< traces uploaded by value
    std::uint64_t deadlineExpirations = 0;
};

class Server
{
  public:
    explicit Server(ServerConfig config);
    ~Server();

    Server(const Server &) = delete;
    Server &operator=(const Server &) = delete;

    /** Bind, listen, and start the listener + worker threads. */
    Status start();

    /** Graceful drain: stop accepting, finish in-flight requests,
     * close and join. Safe to call twice. */
    void stop();

    /** The bound port (valid after start()). */
    std::uint16_t port() const { return boundPort; }

    ServerCounters counters() const;
    const TraceStore &store() const { return traceStore; }

    /** The (name, value) rows a STATS response carries — server
     * counters first, then TraceStore counters. */
    std::vector<std::pair<std::string, std::uint64_t>> statsRows() const;

    /** The latency histograms (live; snapshot per series to read). */
    const obs::HistogramSet &latencyHistograms() const
    {
        return latencies;
    }

  private:
    /** Telemetry context of the request being handled: its trace id
     * (0 when the frame carried none) plus the arrival clock, threaded
     * through the handlers so spans and histograms can tag/time. */
    struct RequestContext
    {
        std::uint64_t arrivalNs = 0;
        std::uint64_t traceId = 0;
    };

    void listenerMain();
    void workerMain();
    void serveConnection(int fd, std::uint64_t queue_wait_ns);

    /** Handle one well-framed request; @return the response frame
     * bytes (already encoded). @p client_id is the connection's
     * identity, rewritten by a hello request. */
    std::string handleRequest(const Frame &request,
                              const RequestContext &ctx,
                              std::string &client_id);

    std::string handlePing();
    std::string handleList();
    std::string handleReplay(const ReplayRequest &request,
                             const RequestContext &ctx,
                             const std::string &client_id);
    std::string handleSweep(const SweepRequest &request,
                            const RequestContext &ctx,
                            const std::string &client_id);
    std::string handleStats();
    std::string handlePut(const PutTraceRequest &request);

    /** Record @p ns into @p series when telemetry is on. */
    void recordLatency(obs::Latency series, std::uint64_t ns);

    /** Per-request bookkeeping after the response is built: E2E
     * histogram, request log line, slow log. */
    void finishRequest(const Frame &request, const RequestContext &ctx,
                       const std::string &client_id,
                       const std::string &response);

    /** Ok, or DeadlineExceeded once @p deadline_ms has passed. */
    Status checkDeadline(std::uint64_t arrival_ns,
                         std::uint32_t deadline_ms);

    /** A BUSY frame carrying @p retry_after_ms, tallied as a shed. */
    std::string busyFrame(std::uint32_t retry_after_ms);

    /** Estimated reference count of a served trace, for the admission
     * cost model (decoded size is unknown before the load). */
    std::uint64_t estimateRefs(const std::string &trace_name) const;

    std::string errorFrame(const Status &status);
    const ServedTrace *findServed(const std::string &name) const;

    /** A trace uploaded by value via PUT, plus its version stamp. */
    struct UploadedTrace
    {
        std::shared_ptr<const Trace> trace;
        std::uint64_t version = 0;
    };

    /** The uploaded trace registered under @p name (nullptr when none);
     * fills @p version when given. */
    std::shared_ptr<const Trace>
    findUploaded(const std::string &name,
                 std::uint64_t *version = nullptr) const;

    /**
     * The TraceStore key for a request's trace name. Uploaded traces
     * key as "put:<name>#v<version>" so a re-upload under the same
     * name never hits the previous version's cached Trace or artifact;
     * served traces key as themselves. Responses name the trace, never
     * the key.
     */
    std::string storeKeyFor(const std::string &name) const;

    ServerConfig config;
    AdmissionController admission;
    ChaosInjector chaos;
    TraceStore traceStore;
    std::uint16_t boundPort = 0;
    int listenFd = -1;

    std::atomic<bool> stopping{false};
    bool started = false;

    std::thread listener;
    std::vector<std::thread> workers;

    /** An accepted connection awaiting a worker, stamped at enqueue
     * so the pop can charge the queue-wait histogram. */
    struct PendingConn
    {
        int fd = -1;
        std::uint64_t enqueueNs = 0;
    };

    mutable std::mutex queueMutex;
    std::condition_variable queueCv;
    std::deque<PendingConn> pending; ///< accepted fds awaiting a worker

    mutable std::mutex countersMutex;
    ServerCounters tallies;

    mutable std::mutex uploadsMutex;
    std::map<std::string, UploadedTrace> uploads;

    obs::HistogramSet latencies;
};

} // namespace server
} // namespace dynex

#endif // DYNEX_SERVER_SERVER_H

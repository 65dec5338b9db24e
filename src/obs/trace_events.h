/**
 * @file
 * A Chrome trace-event tracer for the sweep engine: spans for thread
 * pool jobs, sweep legs, kernel replay passes and chunks, and trace
 * loads, written as the JSON array format `chrome://tracing` and
 * Perfetto load directly.
 *
 * Threading model mirrors the metrics registry: each thread appends to
 * its own buffer (registered once under a mutex), so recording a span
 * is an uncontended vector push. The JSON writer runs after the sweep,
 * merging buffers and sorting events by (timestamp, duration) so the
 * file is stable for a given set of recorded intervals.
 *
 * Like the collector, the tracer is consulted through one global
 * pointer: a null check per span site, never per reference, so tracing
 * is free when off.
 *
 * Spans are recorded through obs::Phase, the one timer of a phase of
 * work: it charges the span, the collector's counters and a latency
 * series from the same two clock reads.
 */

#ifndef DYNEX_OBS_TRACE_EVENTS_H
#define DYNEX_OBS_TRACE_EVENTS_H

#include <chrono>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <type_traits>
#include <vector>

#include "obs/histogram.h"
#include "obs/metrics.h"
#include "util/status.h"

namespace dynex
{
namespace obs
{

/** One complete ("ph":"X") trace event. */
struct TraceEvent
{
    std::string name;
    const char *category = "";
    std::uint64_t startNs = 0; ///< relative to the tracer's epoch
    std::uint64_t durNs = 0;
    std::uint32_t tid = 0;
    /** Request trace id the span belongs to; 0 = untagged. Emitted as
     * args.trace so trace-merge can align client and server files. */
    std::uint64_t traceId = 0;
};

class Tracer
{
  public:
    Tracer();
    Tracer(const Tracer &) = delete;
    Tracer &operator=(const Tracer &) = delete;

    /** The installed tracer, or nullptr: one relaxed atomic load. */
    static Tracer *active();

    /** Install @p tracer (nullptr disables). Caller owns it and must
     * uninstall before destroying it. */
    static void setActive(Tracer *tracer);

    /** Convert an absolute steady_clock time to tracer-relative ns
     * (clamped at 0 for pre-epoch times). */
    std::uint64_t
    toNs(std::chrono::steady_clock::time_point when) const;

    /** Record a complete span on the calling thread's buffer. A
     * nonzero @p trace_id tags the span with the request it served. */
    void complete(std::string name, const char *category,
                  std::uint64_t start_ns, std::uint64_t dur_ns,
                  std::uint64_t trace_id = 0);

    /** Merge every thread's events, sorted by (start, -duration) so
     * enclosing spans precede their children. */
    std::vector<TraceEvent> sortedEvents() const;

    /** The Chrome trace JSON ({"traceEvents":[...]}, ts/dur in us). */
    std::string toJson() const;

    /** Write toJson() to @p path. */
    Status writeJson(const std::string &path) const;

  private:
    struct ThreadBuffer
    {
        std::vector<TraceEvent> events;
        std::uint32_t tid = 0;
    };

    ThreadBuffer &bufferForThisThread();

    const std::uint64_t tracerId;
    std::chrono::steady_clock::time_point epoch;
    mutable std::mutex bufferMutex;
    std::vector<std::unique_ptr<ThreadBuffer>> buffers;
};

/**
 * One timed phase of work. It reads steady_clock once when it starts
 * and once when it ends, and charges every sink it was given from
 * those two reads, so its span, its counter and its latency sample are
 * one measurement: spans sum exactly to the counters they charge.
 *
 * The sinks: a span under the tracer installed at the start; the
 * collector's Sinks::ns (elapsed ns) and Sinks::count (count()'s
 * amount); a HistogramSet series. With none live and Sinks::timed
 * unset it reads no clock and never builds its name, so call sites
 * need no guard. The name, a string or a callable returning one, is
 * read when the phase ends. A phase charges however it ends, early
 * return and unwinding included; only count() says what it produced.
 */
class Phase
{
  public:
    using Clock = std::chrono::steady_clock;

    /** Where a phase charges besides its span; each is optional. */
    struct Sinks
    {
        std::optional<Counter> ns = {};    ///< the elapsed ns
        std::optional<Counter> count = {}; ///< count()'s amount
        HistogramSet *latencies = nullptr; ///< the elapsed ns, into...
        Latency series = Latency::E2ePing; ///< ...this series
        std::uint64_t traceId = 0;         ///< the span's request
        bool timed = false; ///< time with no sink live, for stop()
    };

    /** A phase with no span. */
    explicit Phase(Sinks sinks) : sink(sinks) { begin(nullptr, {}); }

    /** A phase with a @p category span named @p name, started at
     * @p start when given (a wait that began before any code could
     * construct the phase), else now. */
    template <class Name>
    Phase(const char *category, Name &&name, Sinks sinks = {},
          std::optional<Clock::time_point> start = {})
        : sink(sinks), tracer(Tracer::active())
    {
        if (tracer) {
            if constexpr (std::is_invocable_v<Name &>)
                label = std::forward<Name>(name);
            else
                label = [text = std::string(name)] { return text; };
        }
        begin(category, start);
    }

    ~Phase() { stop(); }

    Phase(const Phase &) = delete;
    Phase &operator=(const Phase &) = delete;

    /** Charge @p amount to Sinks::count when the phase ends. */
    void count(std::uint64_t amount) { produced = amount; }

    /** Record no span; the other sinks still charge. */
    void dropSpan() { tracer = nullptr; }

    /** End the phase now and charge every sink. @return the elapsed
     * ns, or 0 when the phase was not timed or already stopped. */
    std::uint64_t stop();

  private:
    /** Take the live sinks and start the clock if any is live. */
    void begin(const char *category,
               std::optional<Clock::time_point> start);

    Sinks sink;
    Tracer *tracer = nullptr;
    MetricsCollector *metrics = nullptr;
    const char *cat = nullptr;
    std::function<std::string()> label;
    std::uint64_t produced = 0;
    Clock::time_point startedAt;
    bool running = false;
};

/**
 * Install (or remove, @p enable == false) the ThreadPool job observer
 * that emits one "pool" span per parallelFor index into the active
 * tracer. Kept separate from Tracer::setActive so library users who
 * only want engine-level spans do not pay the per-index clock reads.
 */
void setPoolJobSpans(bool enable);

} // namespace obs
} // namespace dynex

#endif // DYNEX_OBS_TRACE_EVENTS_H

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
 */

#ifndef DYNEX_OBS_TRACE_EVENTS_H
#define DYNEX_OBS_TRACE_EVENTS_H

#include <chrono>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

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

    /** Nanoseconds since this tracer was constructed. */
    std::uint64_t nowNs() const;

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
 * RAII complete-span recorder. Constructing one when no tracer is
 * installed costs the name-string construction at the call site; hot
 * paths should guard with `if (Tracer::active())` before building
 * dynamic labels.
 */
class ScopedSpan
{
  public:
    ScopedSpan(const char *category, std::string name,
               std::uint64_t trace_id = 0)
        : tracer(Tracer::active()), cat(category), traceId(trace_id)
    {
        if (tracer) {
            label = std::move(name);
            startNs = tracer->nowNs();
        }
    }

    ~ScopedSpan()
    {
        if (tracer)
            tracer->complete(std::move(label), cat, startNs,
                             tracer->nowNs() - startNs, traceId);
    }

    ScopedSpan(const ScopedSpan &) = delete;
    ScopedSpan &operator=(const ScopedSpan &) = delete;

  private:
    Tracer *tracer;
    const char *cat;
    std::uint64_t traceId;
    std::string label;
    std::uint64_t startNs = 0;
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

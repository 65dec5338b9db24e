#include "obs/trace_events.h"

#include <algorithm>
#include <atomic>
#include <cstdio>

#include "obs/json.h"
#include "util/thread_pool.h"

namespace dynex
{
namespace obs
{

namespace
{

std::atomic<Tracer *> activeTracer{nullptr};
std::atomic<std::uint64_t> nextTracerId{1};

void
poolJobObserver(std::size_t index,
                std::chrono::steady_clock::time_point start,
                std::chrono::steady_clock::time_point end)
{
    Tracer *const tracer = Tracer::active();
    if (!tracer)
        return;
    const std::uint64_t start_ns = tracer->toNs(start);
    tracer->complete("job#" + std::to_string(index), "pool", start_ns,
                     tracer->toNs(end) - start_ns);
}

} // namespace

Tracer::Tracer()
    : tracerId(nextTracerId.fetch_add(1)),
      epoch(std::chrono::steady_clock::now())
{
}

Tracer *
Tracer::active()
{
    return activeTracer.load(std::memory_order_relaxed);
}

void
Tracer::setActive(Tracer *tracer)
{
    activeTracer.store(tracer, std::memory_order_relaxed);
}

std::uint64_t
Tracer::toNs(std::chrono::steady_clock::time_point when) const
{
    if (when <= epoch)
        return 0;
    return static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(when -
                                                             epoch)
            .count());
}

Tracer::ThreadBuffer &
Tracer::bufferForThisThread()
{
    // Same unique-id cache pattern as the metrics shards: uncontended
    // appends after a thread's first span.
    thread_local std::uint64_t cachedOwner = 0;
    thread_local ThreadBuffer *cachedBuffer = nullptr;
    if (cachedOwner != tracerId) {
        std::lock_guard<std::mutex> lock(bufferMutex);
        auto buffer = std::make_unique<ThreadBuffer>();
        buffer->tid = static_cast<std::uint32_t>(buffers.size() + 1);
        buffers.push_back(std::move(buffer));
        cachedBuffer = buffers.back().get();
        cachedOwner = tracerId;
    }
    return *cachedBuffer;
}

void
Tracer::complete(std::string name, const char *category,
                 std::uint64_t start_ns, std::uint64_t dur_ns,
                 std::uint64_t trace_id)
{
    ThreadBuffer &buffer = bufferForThisThread();
    buffer.events.push_back({std::move(name), category, start_ns,
                             dur_ns, buffer.tid, trace_id});
}

std::vector<TraceEvent>
Tracer::sortedEvents() const
{
    std::vector<TraceEvent> events;
    {
        std::lock_guard<std::mutex> lock(bufferMutex);
        std::size_t total = 0;
        for (const auto &buffer : buffers)
            total += buffer->events.size();
        events.reserve(total);
        for (const auto &buffer : buffers)
            events.insert(events.end(), buffer->events.begin(),
                          buffer->events.end());
    }
    std::stable_sort(events.begin(), events.end(),
                     [](const TraceEvent &a, const TraceEvent &b) {
                         if (a.startNs != b.startNs)
                             return a.startNs < b.startNs;
                         return a.durNs > b.durNs;
                     });
    return events;
}

std::string
Tracer::toJson() const
{
    const auto events = sortedEvents();
    std::string out = "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[";
    char buf[96];
    bool first = true;
    for (const auto &event : events) {
        if (!first)
            out += ',';
        first = false;
        out += "\n{\"name\":";
        appendJsonString(out, event.name);
        out += ",\"cat\":";
        appendJsonString(out, event.category);
        out += ",\"ph\":\"X\",\"pid\":1";
        // Microsecond timestamps with ns precision kept as decimals,
        // the unit chrome://tracing expects.
        std::snprintf(buf, sizeof(buf),
                      ",\"tid\":%u,\"ts\":%llu.%03u,\"dur\":%llu.%03u",
                      event.tid,
                      static_cast<unsigned long long>(event.startNs /
                                                      1000),
                      static_cast<unsigned>(event.startNs % 1000),
                      static_cast<unsigned long long>(event.durNs /
                                                      1000),
                      static_cast<unsigned>(event.durNs % 1000));
        out += buf;
        if (event.traceId != 0) {
            // Hex so 64-bit ids survive viewers that parse numbers as
            // doubles; trace-merge keys its alignment on this field.
            std::snprintf(buf, sizeof(buf),
                          ",\"args\":{\"trace\":\"0x%016llx\"}",
                          static_cast<unsigned long long>(
                              event.traceId));
            out += buf;
        }
        out += '}';
    }
    out += "\n]}\n";
    return out;
}

Status
Tracer::writeJson(const std::string &path) const
{
    return writeTextFile(path, toJson());
}

void
Phase::begin(const char *category, std::optional<Clock::time_point> start)
{
    cat = category;
    if (sink.ns || sink.count)
        metrics = activeMetrics();
    running = tracer || metrics || sink.latencies || sink.timed;
    if (running)
        startedAt = start ? *start : Clock::now();
}

std::uint64_t
Phase::stop()
{
    if (!running)
        return 0;
    running = false;
    const auto ns = static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            Clock::now() - startedAt)
            .count());
    if (metrics) {
        if (sink.ns)
            metrics->add(*sink.ns, ns);
        if (sink.count)
            metrics->add(*sink.count, produced);
    }
    if (sink.latencies)
        sink.latencies->record(sink.series, ns);
    if (tracer)
        tracer->complete(label(), cat, tracer->toNs(startedAt), ns,
                         sink.traceId);
    return ns;
}

void
setPoolJobSpans(bool enable)
{
    ThreadPool::setJobObserver(enable ? &poolJobObserver : nullptr);
}

} // namespace obs
} // namespace dynex

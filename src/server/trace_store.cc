#include "server/trace_store.h"

#include <utility>

#include "obs/metrics.h"
#include "util/logging.h"

namespace dynex
{
namespace server
{

namespace
{

/** Resident charge of a loaded trace: its 16-byte AoS records. */
std::uint64_t traceBytes(const Trace &trace)
{
    return static_cast<std::uint64_t>(trace.size()) * sizeof(MemRef) +
           trace.name().size();
}

/** Resident charge of one (index, view) artifact pair: the view's set
 * words and dense ids plus the index's next-use ticks, 12 bytes per
 * reference. */
std::uint64_t artifactBytes(const NextUseIndex &index,
                            const PackedTraceView &view)
{
    return index.bytes() + view.bytes();
}

void chargeActive(obs::Counter counter, std::uint64_t delta)
{
    if (obs::MetricsCollector *metrics = obs::activeMetrics())
        metrics->add(counter, delta);
}

} // namespace

/** One (index, view) pair at one line granularity, single-flight. */
struct TraceStore::Artifact
{
    bool ready = false; ///< false while the builder thread runs
    std::shared_ptr<const NextUseIndex> index;
    std::shared_ptr<const PackedTraceView> view;
};

/** One cached trace and its per-granularity artifacts. All fields are
 * guarded by the store mutex; the load/build work itself runs
 * off-lock while the slot sits in its in-flight state. */
struct TraceStore::Entry
{
    enum class State : std::uint8_t
    {
        Loading,
        Ready,
        Failed,
    };

    std::string name;
    State state = State::Loading;
    std::shared_ptr<const Trace> trace;
    Status error = Status();
    std::uint64_t bytes = 0;   ///< total resident charge
    std::uint64_t lastUse = 0; ///< LRU stamp (larger = more recent)
    std::map<std::uint32_t, std::shared_ptr<Artifact>> artifacts;

    /** An entry is evictable only when nothing is in flight on it. */
    bool idle() const
    {
        if (state != State::Ready)
            return false;
        for (const auto &granularity : artifacts)
            if (!granularity.second->ready)
                return false;
        return true;
    }
};

TraceStore::TraceStore(Loader trace_loader, std::uint64_t budget_bytes,
                       SizeProbe size_probe)
    : loader(std::move(trace_loader)), sizeProbe(std::move(size_probe)),
      budget(budget_bytes)
{
    DYNEX_ASSERT(loader != nullptr, "TraceStore needs a loader");
}

std::uint64_t TraceStore::chargeForLocked(const Trace &trace,
                                          std::uint64_t encoded_bytes)
{
    const std::uint64_t decoded = traceBytes(trace);
    if (encoded_bytes == 0 || encoded_bytes >= decoded)
        return decoded;
    ++tallies.encodedHits;
    tallies.bytesSaved += decoded - encoded_bytes;
    chargeActive(obs::Counter::StoreEncodedHits, 1);
    chargeActive(obs::Counter::StoreBytesSaved, decoded - encoded_bytes);
    return encoded_bytes;
}

Result<std::shared_ptr<const Trace>> TraceStore::trace(const std::string &name)
{
    std::unique_lock<std::mutex> lock(storeMutex);
    for (;;)
    {
        auto it = entries.find(name);
        if (it == entries.end())
            break; // we own the load
        std::shared_ptr<Entry> entry = it->second;
        if (entry->state == Entry::State::Loading)
        {
            ++tallies.singleFlightWaits;
            storeCv.wait(lock, [&] {
                return entry->state != Entry::State::Loading;
            });
            if (entry->state == Entry::State::Failed)
                return entry->error;
            // Joined the flight: counted as a wait, not as a hit (the
            // trace was not warm when this request arrived).
            entry->lastUse = ++useClock;
            return entry->trace;
        }
        if (entry->state == Entry::State::Failed)
            return entry->error;
        ++tallies.traceHits;
        chargeActive(obs::Counter::StoreHits, 1);
        entry->lastUse = ++useClock;
        return entry->trace;
    }

    auto entry = std::make_shared<Entry>();
    entry->name = name;
    entries.emplace(name, entry);
    ++tallies.traceMisses;
    chargeActive(obs::Counter::StoreMisses, 1);

    lock.unlock();
    const std::uint64_t startNs = obs::monotonicNs();
    Result<Trace> loaded = [&]() -> Result<Trace> {
        try
        {
            return loader(name);
        }
        catch (...)
        {
            return statusFromException(std::current_exception())
                .withContext("trace loader");
        }
    }();
    const std::uint64_t elapsedNs = obs::monotonicNs() - startNs;
    std::uint64_t encoded = 0;
    if (sizeProbe && loaded.ok())
    {
        try
        {
            encoded = sizeProbe(name);
        }
        catch (...)
        {
            encoded = 0; // an unknown size just charges decoded
        }
    }
    lock.lock();

    if (!loaded.ok())
    {
        entry->state = Entry::State::Failed;
        entry->error = loaded.status().withContext("loading '" + name + "'");
        entries.erase(name); // do not cache failures; next request retries
        ++tallies.loadFailures;
        storeCv.notify_all();
        return entry->error;
    }

    entry->trace = std::make_shared<const Trace>(std::move(loaded.value()));
    entry->bytes = chargeForLocked(*entry->trace, encoded);
    entry->state = Entry::State::Ready;
    entry->lastUse = ++useClock;
    tallies.residentBytes += entry->bytes;
    ++tallies.traceLoads;
    chargeActive(obs::Counter::TraceLoadNs, elapsedNs);
    chargeActive(obs::Counter::TraceLoadRefs, entry->trace->size());
    evictIfNeededLocked(entry.get());
    storeCv.notify_all();
    return entry->trace;
}

Result<IndexedTrace> TraceStore::indexed(const std::string &name,
                                         std::uint32_t line_bytes)
{
    Result<std::shared_ptr<const Trace>> base = trace(name);
    if (!base.ok())
        return base.status();

    std::unique_lock<std::mutex> lock(storeMutex);
    auto it = entries.find(name);
    // The entry can only have been evicted (or replaced after a
    // concurrent eviction) between the calls; re-insert our handle so
    // the artifacts attach to a live slot.
    std::shared_ptr<Entry> entry;
    if (it != entries.end() && it->second->state == Entry::State::Ready &&
        it->second->trace == base.value())
    {
        entry = it->second;
    }
    else if (it == entries.end())
    {
        entry = std::make_shared<Entry>();
        entry->name = name;
        entry->trace = base.value();
        std::uint64_t encoded = 0;
        if (sizeProbe)
        {
            try
            {
                encoded = sizeProbe(name);
            }
            catch (...)
            {
                encoded = 0;
            }
        }
        entry->bytes = chargeForLocked(*entry->trace, encoded);
        entry->state = Entry::State::Ready;
        entries.emplace(name, entry);
        tallies.residentBytes += entry->bytes;
    }
    else
    {
        // A different flight owns the slot; fall back to a private
        // (uncached) build rather than fight over it.
        lock.unlock();
        const std::uint64_t startNs = obs::monotonicNs();
        IndexedTrace result;
        result.trace = base.value();
        result.view = std::make_shared<const PackedTraceView>(*result.trace,
                                                              line_bytes);
        result.index = std::make_shared<const NextUseIndex>(
            *result.view, NextUseMode::RunStart);
        result.lineBytes = line_bytes;
        chargeActive(obs::Counter::IndexBuildNs,
                     obs::monotonicNs() - startNs);
        chargeActive(obs::Counter::IndexBuilds, 1);
        return result;
    }
    entry->lastUse = ++useClock;

    for (;;)
    {
        auto slot = entry->artifacts.find(line_bytes);
        if (slot == entry->artifacts.end())
            break; // we own the build
        std::shared_ptr<Artifact> artifact = slot->second;
        if (!artifact->ready)
        {
            // Joined the in-flight build: a wait, not a hit.
            ++tallies.singleFlightWaits;
            storeCv.wait(lock, [&] { return artifact->ready; });
        }
        else
        {
            ++tallies.indexHits;
            chargeActive(obs::Counter::StoreHits, 1);
        }
        IndexedTrace result;
        result.trace = entry->trace;
        result.index = artifact->index;
        result.view = artifact->view;
        result.lineBytes = line_bytes;
        return result;
    }

    auto artifact = std::make_shared<Artifact>();
    entry->artifacts.emplace(line_bytes, artifact);
    chargeActive(obs::Counter::StoreMisses, 1);

    std::shared_ptr<const Trace> source = entry->trace;
    lock.unlock();
    const std::uint64_t startNs = obs::monotonicNs();
    auto view = std::make_shared<const PackedTraceView>(*source, line_bytes);
    auto index = std::make_shared<const NextUseIndex>(*view,
                                                      NextUseMode::RunStart);
    const std::uint64_t elapsedNs = obs::monotonicNs() - startNs;
    lock.lock();

    artifact->index = index;
    artifact->view = view;
    artifact->ready = true;
    const std::uint64_t charge = artifactBytes(*index, *view);
    entry->bytes += charge;
    entry->lastUse = ++useClock;
    tallies.residentBytes += charge;
    ++tallies.indexBuilds;
    chargeActive(obs::Counter::IndexBuildNs, elapsedNs);
    chargeActive(obs::Counter::IndexBuilds, 1);
    evictIfNeededLocked(entry.get());
    storeCv.notify_all();

    IndexedTrace result;
    result.trace = source;
    result.index = index;
    result.view = view;
    result.lineBytes = line_bytes;
    return result;
}

void TraceStore::evictIfNeededLocked(const Entry *keep)
{
    while (tallies.residentBytes > budget)
    {
        Entry *victim = nullptr;
        std::string victimName;
        for (const auto &named : entries)
        {
            Entry *candidate = named.second.get();
            if (candidate == keep || !candidate->idle())
                continue;
            if (!victim || candidate->lastUse < victim->lastUse)
            {
                victim = candidate;
                victimName = named.first;
            }
        }
        if (!victim)
            return; // everything left is in use or in flight
        tallies.residentBytes -= victim->bytes;
        ++tallies.evictions;
        chargeActive(obs::Counter::StoreEvictions, 1);
        entries.erase(victimName);
    }
}

bool TraceStore::resident(const std::string &name) const
{
    std::lock_guard<std::mutex> lock(storeMutex);
    auto it = entries.find(name);
    return it != entries.end() && it->second->state == Entry::State::Ready;
}

TraceStore::Counters TraceStore::counters() const
{
    std::lock_guard<std::mutex> lock(storeMutex);
    Counters snapshot = tallies;
    snapshot.entries = entries.size();
    return snapshot;
}

} // namespace server
} // namespace dynex

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

void chargeActive(obs::Counter counter, std::uint64_t delta)
{
    if (obs::MetricsCollector *metrics = obs::activeMetrics())
        metrics->add(counter, delta);
}

} // namespace

/** One replay artifact at one line granularity, single-flight. */
struct TraceStore::Artifact
{
    bool ready = false; ///< false while the builder thread runs
    std::shared_ptr<const ReplayArtifact> value; ///< null if it failed
    Status error = Status();
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

std::uint64_t TraceStore::probeEncoded(const std::string &name) const
{
    if (!sizeProbe)
        return 0;
    try
    {
        return sizeProbe(name);
    }
    catch (...)
    {
        return 0; // an unknown size just charges decoded
    }
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
    const std::uint64_t encoded = loaded.ok() ? probeEncoded(name) : 0;
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

    // trace() counted this request once; finding the slot below must
    // not count it again, so it waits on a newer flight directly.
    std::unique_lock<std::mutex> lock(storeMutex);
    std::shared_ptr<Entry> entry;
    for (;;)
    {
        auto it = entries.find(name);
        if (it == entries.end())
        {
            // Evicted since the load: re-insert the trace so the
            // artifact attaches to a live slot.
            entry = std::make_shared<Entry>();
            entry->name = name;
            entry->trace = base.value();
            entry->bytes = chargeForLocked(*entry->trace, probeEncoded(name));
            entry->state = Entry::State::Ready;
            entries.emplace(name, entry);
            tallies.residentBytes += entry->bytes;
            break;
        }
        entry = it->second;
        if (entry->state == Entry::State::Ready)
            break;
        // Evicted and reloaded by a newer flight: join it.
        storeCv.wait(lock, [&] {
            return entry->state != Entry::State::Loading;
        });
        if (entry->state == Entry::State::Failed)
            return entry->error;
    }
    entry->lastUse = ++useClock;

    if (auto slot = entry->artifacts.find(line_bytes);
        slot != entry->artifacts.end())
    {
        std::shared_ptr<Artifact> artifact = slot->second;
        if (!artifact->ready)
        {
            // Joined the in-flight build: a wait, not a hit.
            ++tallies.singleFlightWaits;
            storeCv.wait(lock, [&] { return artifact->ready; });
            if (!artifact->value)
                return artifact->error;
        }
        else
        {
            ++tallies.indexHits;
            chargeActive(obs::Counter::StoreHits, 1);
        }
        return IndexedTrace{entry->trace, artifact->value};
    }

    auto artifact = std::make_shared<Artifact>();
    entry->artifacts.emplace(line_bytes, artifact);
    chargeActive(obs::Counter::StoreMisses, 1);

    std::shared_ptr<const Trace> source = entry->trace;
    lock.unlock();
    std::shared_ptr<const ReplayArtifact> built;
    Status failed;
    try
    {
        built = buildReplayArtifact(*source, line_bytes, name);
    }
    catch (...)
    {
        failed = statusFromException(std::current_exception())
                     .withContext("building '" + name + "'");
    }
    lock.lock();

    artifact->ready = true;
    artifact->value = built;
    artifact->error = failed;
    storeCv.notify_all();
    if (!built)
    {
        // Like a failed load: every waiter gets the status, and the
        // next request retries.
        entry->artifacts.erase(line_bytes);
        return failed;
    }
    entry->bytes += built->bytes();
    entry->lastUse = ++useClock;
    tallies.residentBytes += built->bytes();
    ++tallies.indexBuilds;
    evictIfNeededLocked(entry.get());
    return IndexedTrace{source, built};
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

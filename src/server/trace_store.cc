#include "server/trace_store.h"

#include <utility>

#include "obs/metrics.h"
#include "trace/text_io.h"
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

/** One single-flight load: an entry's Trace or one of its artifacts.
 * Guarded by the store mutex; the work itself runs off-lock on a
 * local Slot, published here when ready. */
struct TraceStore::Slot
{
    bool ready = false; ///< false while the flight runs
    std::shared_ptr<const Trace> trace;             ///< kTraceSlot
    std::shared_ptr<const ReplayArtifact> artifact; ///< any other key
    Status error = Status();
    std::uint64_t bytes = 0; ///< resident charge once ready

    /** Ready and holding its value (a failed slot holds none). */
    bool warm() const { return trace || artifact; }
};

/** One trace's slots. All fields are guarded by the store mutex. */
struct TraceStore::Entry
{
    std::map<std::uint32_t, std::shared_ptr<Slot>> slots;
    std::uint64_t bytes = 0;         ///< total resident charge
    std::uint64_t artifactBytes = 0; ///< the artifacts' part of it
    std::uint64_t lastUse = 0; ///< LRU stamp (larger = more recent)

    bool warm() const
    {
        for (const auto &keyed : slots)
            if (keyed.second->warm())
                return true;
        return false;
    }

    /** An entry is evictable only when nothing is in flight on it. */
    bool idle() const
    {
        for (const auto &keyed : slots)
            if (!keyed.second->ready)
                return false;
        return true;
    }
};

TraceStore::TraceStore(Resolver trace_resolver, std::uint64_t budget_bytes)
    : resolver(std::move(trace_resolver)), budget(budget_bytes)
{
    DYNEX_ASSERT(resolver != nullptr, "TraceStore needs a resolver");
}

Result<std::shared_ptr<const Trace>> TraceStore::trace(const std::string &name)
{
    Result<std::shared_ptr<const Slot>> slot = fetch(name, kTraceSlot);
    if (!slot.ok())
        return slot.status();
    return slot.value()->trace;
}

Result<std::shared_ptr<const ReplayArtifact>>
TraceStore::artifact(const std::string &name, std::uint32_t line_bytes)
{
    if (line_bytes == kTraceSlot)
        return Status::invalidArgument("line size must be nonzero");
    Result<std::shared_ptr<const Slot>> slot = fetch(name, line_bytes);
    if (!slot.ok())
        return slot.status();
    return slot.value()->artifact;
}

Result<std::shared_ptr<const TraceStore::Slot>>
TraceStore::fetch(const std::string &name, std::uint32_t key)
{
    std::unique_lock<std::mutex> lock(storeMutex);
    std::shared_ptr<Entry> &found = entries[name];
    if (!found)
        found = std::make_shared<Entry>();
    const std::shared_ptr<Entry> entry = found;
    entry->lastUse = ++useClock;
    const bool warm = entry->warm();
    if (warm)
    {
        ++tallies.traceHits;
        chargeActive(obs::Counter::StoreHits, 1);
    }

    if (auto it = entry->slots.find(key); it != entry->slots.end())
    {
        const std::shared_ptr<Slot> slot = it->second;
        if (slot->ready)
        {
            if (key != kTraceSlot)
            {
                ++tallies.indexHits;
                chargeActive(obs::Counter::StoreHits, 1);
            }
            return std::shared_ptr<const Slot>(slot);
        }
        // Joined the in-flight load: a wait, not a hit.
        ++tallies.singleFlightWaits;
        storeCv.wait(lock, [&] { return slot->ready; });
        if (!slot->warm())
            return slot->error;
        return std::shared_ptr<const Slot>(slot);
    }

    if (!warm)
        ++tallies.traceMisses;
    chargeActive(obs::Counter::StoreMisses, 1);
    const auto slot = std::make_shared<Slot>();
    entry->slots.emplace(key, slot);

    lock.unlock();
    Slot filled;
    const bool loadedTrace = fill(filled, name, key);
    lock.lock();

    *slot = std::move(filled);
    slot->ready = true;
    storeCv.notify_all();
    tallies.traceLoads += loadedTrace ? 1 : 0;
    if (!slot->warm())
    {
        // Not cached: every waiter gets the status, and the next
        // request retries. In flight, the entry cannot have been
        // evicted, so it is still the one under @p name.
        ++tallies.loadFailures;
        entry->slots.erase(key);
        if (entry->slots.empty())
            entries.erase(name);
        return slot->error;
    }
    entry->bytes += slot->bytes;
    tallies.residentBytes += slot->bytes;
    if (slot->artifact)
    {
        entry->artifactBytes += slot->bytes;
        tallies.artifactBytes += slot->bytes;
        ++tallies.indexBuilds;
    }
    entry->lastUse = ++useClock;
    evictIfNeededLocked(entry.get());
    return std::shared_ptr<const Slot>(slot);
}

bool TraceStore::fill(Slot &slot, const std::string &name, std::uint32_t key)
{
    const std::uint64_t startNs = obs::monotonicNs();
    bool loadedTrace = false;
    try
    {
        Result<TraceSource> source = resolver(name);
        if (!source.ok())
        {
            slot.error = source.status().withContext("loading '" + name + "'");
            return false;
        }
        std::shared_ptr<const Trace> trace = source.value().trace;
        if (!trace && key != kTraceSlot)
        {
            // A binary trace file packs block by block: no Trace.
            Result<std::shared_ptr<const ReplayArtifact>> built =
                buildReplayArtifact(source.value().path, key);
            if (!built.ok())
                slot.error =
                    built.status().withContext("building '" + name + "'");
            else
                slot.artifact = std::move(built.value());
            slot.bytes = slot.artifact ? slot.artifact->bytes() : 0;
            return false;
        }
        if (!trace)
        {
            Result<Trace> decoded = readAnyTraceFile(source.value().path);
            if (!decoded.ok())
            {
                slot.error =
                    decoded.status().withContext("loading '" + name + "'");
                return false;
            }
            trace = std::make_shared<const Trace>(std::move(decoded.value()));
        }
        loadedTrace = true;
        chargeActive(obs::Counter::TraceLoadNs, obs::monotonicNs() - startNs);
        chargeActive(obs::Counter::TraceLoadRefs, trace->size());
        if (key == kTraceSlot)
        {
            slot.bytes = traceBytes(*trace);
            slot.trace = std::move(trace);
            return true;
        }
        // The store keeps the artifact, not the Trace, so the artifact
        // must not point at it.
        slot.artifact = buildReplayArtifact(*trace, key, trace->name(),
                                            TraceLink::Drop);
        slot.bytes = slot.artifact->bytes();
    }
    catch (...)
    {
        slot.error = statusFromException(std::current_exception())
                         .withContext((key == kTraceSlot ? "loading '"
                                                         : "building '") +
                                      name + "'");
    }
    return loadedTrace;
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
        tallies.artifactBytes -= victim->artifactBytes;
        ++tallies.evictions;
        chargeActive(obs::Counter::StoreEvictions, 1);
        entries.erase(victimName);
    }
}

bool TraceStore::resident(const std::string &name) const
{
    std::lock_guard<std::mutex> lock(storeMutex);
    auto it = entries.find(name);
    return it != entries.end() && it->second->warm();
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

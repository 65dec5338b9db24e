/**
 * @file
 * The abstract cache-model interface shared by every cache in the
 * library, and the access-outcome record returned to callers.
 */

#ifndef DYNEX_CACHE_CACHE_H
#define DYNEX_CACHE_CACHE_H

#include <memory>
#include <string>

#include "cache/config.h"
#include "cache/stats.h"
#include "trace/record.h"
#include "util/types.h"

namespace dynex
{

/** What happened on one access, beyond hit/miss. */
struct AccessOutcome
{
    bool hit = false;      ///< reference satisfied without a fetch
    bool filled = false;   ///< a line was allocated
    bool bypassed = false; ///< missed but deliberately not allocated
    bool evicted = false;  ///< a valid line was displaced
    Addr victimBlock = kAddrInvalid; ///< block number displaced, if any
};

/**
 * Base class for trace-driven cache models.
 *
 * Callers present references in trace order via access(); the Tick is
 * the reference's position in the trace, which future-knowing models
 * (the optimal cache) use to consult their next-use index. Models that
 * do not need it ignore it.
 */
class CacheModel
{
  public:
    virtual ~CacheModel() = default;

    CacheModel(const CacheModel &) = delete;
    CacheModel &operator=(const CacheModel &) = delete;

    /**
     * Present one reference.
     *
     * @param ref the memory reference.
     * @param tick the reference's position in the trace (required to be
     *        the value used when building any next-use index).
     * @return the detailed outcome; counters are updated internally.
     */
    AccessOutcome
    access(const MemRef &ref, Tick tick)
    {
        const AccessOutcome outcome = doAccess(ref, tick);
        recordOutcome(outcome);
        return outcome;
    }

    /** Invalidate all lines and zero the counters. */
    virtual void reset() = 0;

    /** A short human-readable model name, e.g. "direct-mapped". */
    virtual std::string name() const = 0;

    const CacheGeometry &geometry() const { return geo; }
    const CacheStats &stats() const { return statsData; }

  protected:
    explicit CacheModel(const CacheGeometry &geometry) : geo(geometry)
    {
        geo.validate();
    }

    /** Model-specific access behavior; stats are handled by access(). */
    virtual AccessOutcome doAccess(const MemRef &ref, Tick tick) = 0;

    /** Fold one access outcome into the counters. */
    void
    recordOutcome(const AccessOutcome &outcome)
    {
        // Branchless: every counter takes an unconditional add of a
        // 0/1 flag, so the replay loops carry no data-dependent
        // branches through the bookkeeping. fills/bypasses/evictions
        // count only on misses, exactly as the branchy form did.
        const Count miss = outcome.hit ? 0 : 1;
        ++statsData.accesses;
        statsData.hits += 1 - miss;
        statsData.misses += miss;
        statsData.fills += miss & static_cast<Count>(outcome.filled);
        statsData.bypasses +=
            miss & static_cast<Count>(outcome.bypassed);
        statsData.evictions +=
            miss & static_cast<Count>(outcome.evicted);
    }

    /** Allow models to count cold misses precisely. */
    void noteColdMiss() { ++statsData.coldMisses; }

    /** Zero the counters (for use by subclass reset()). */
    void resetStats() { statsData.reset(); }

    CacheGeometry geo;

  private:
    CacheStats statsData;
};

} // namespace dynex

#endif // DYNEX_CACHE_CACHE_H

/**
 * @file
 * The optimal direct-mapped cache: Belady replacement generalized with
 * a bypass option, the paper's upper-bound reference point. The cache
 * stores blocks in the same line a direct-mapped cache would, but on a
 * conflict it retains whichever of {resident, incoming} is referenced
 * sooner in the future, passing the other directly to the CPU.
 */

#ifndef DYNEX_CACHE_OPTIMAL_H
#define DYNEX_CACHE_OPTIMAL_H

#include <vector>

#include "cache/cache.h"
#include "trace/next_use.h"
#include "util/logging.h"

namespace dynex
{

/**
 * Optimal direct-mapped cache with bypass.
 *
 * With a single line per set, retaining the block whose next reference
 * is nearest maximizes hits (the exchange argument of Belady's proof
 * applies per set, and bypass makes any retain decision feasible), so
 * the greedy rule implemented here is exactly optimal.
 *
 * For line sizes above one instruction, runs of consecutive references
 * to the same block are served by an implicit last-line register (the
 * same assist Section 6 of the paper grants dynamic exclusion), and
 * retain decisions compare next *run starts*; pass a RunStart-mode
 * index and enable @p use_last_line for that configuration.
 *
 * The NextUseIndex must have been built over the exact trace that will
 * be replayed, at this cache's line granularity, and access() must be
 * called with the reference's true trace position.
 */
class OptimalDirectMappedCache final : public CacheModel
{
  public:
    /**
     * @param geometry must have ways == 1.
     * @param index next-use oracle for the trace to be replayed;
     *        must outlive the cache.
     * @param use_last_line serve consecutive same-block references from
     *        a last-line register (required when index mode is
     *        RunStart).
     */
    OptimalDirectMappedCache(const CacheGeometry &geometry,
                             const NextUseIndex &index,
                             bool use_last_line = false);

    void reset() override;
    std::string name() const override { return "optimal-direct-mapped"; }

  protected:
    AccessOutcome doAccess(const MemRef &ref, Tick tick) override;

  private:
    AccessOutcome
    stepBlock(Addr block, Tick tick)
    {
        DYNEX_ASSERT(tick < oracle->size(), "tick ", tick,
                     " beyond indexed trace of ", oracle->size());

        AccessOutcome outcome;
        if (lastLineEnabled && lastValid && block == lastBlock) {
            // Within-run reference: served by the last-line register
            // without touching (or re-deciding) the cache line.
            outcome.hit = true;
            return outcome;
        }
        if (lastLineEnabled) {
            lastBlock = block;
            lastValid = true;
        }

        const std::uint64_t set = block & setMask;
        const Tick incoming_next = oracle->nextUse(tick);

        if (valid[set] && tags[set] == block) {
            outcome.hit = true;
            residentNextUse[set] = incoming_next;
            return outcome;
        }

        if (!valid[set]) {
            noteColdMiss();
            tags[set] = block;
            valid[set] = true;
            residentNextUse[set] = incoming_next;
            outcome.filled = true;
            return outcome;
        }

        // Conflict: retain whichever block is referenced sooner. Ties
        // are impossible (two distinct blocks cannot share a future
        // position).
        if (incoming_next < residentNextUse[set]) {
            outcome.evicted = true;
            outcome.victimBlock = tags[set];
            tags[set] = block;
            residentNextUse[set] = incoming_next;
            outcome.filled = true;
        } else {
            outcome.bypassed = true;
        }
        return outcome;
    }

    const NextUseIndex *oracle;
    std::vector<Addr> tags;
    std::vector<bool> valid;
    /** Next-use tick of the resident block, refreshed on every touch. */
    std::vector<Tick> residentNextUse;
    bool lastLineEnabled;
    /** The last-line register; lastValid is false until the first
     * reference, since every block value (kAddrInvalid included, at
     * byte granularity) is a real block. */
    Addr lastBlock = kAddrInvalid;
    bool lastValid = false;
    Addr setMask = 0; ///< numSets - 1, cached off the geometry
};

/**
 * Belady replacement with bypass for set-associative caches: on a
 * miss in a full set, the block with the farthest next reference among
 * {residents, incoming} is the one denied residency (evicted, or the
 * incoming block bypassed). For one way this reduces to
 * OptimalDirectMappedCache; for multiple ways it is the standard
 * optimal eviction bound extended with bypass.
 */
class OptimalSetAssocCache final : public CacheModel
{
  public:
    /**
     * @param geometry any associativity (ways == 0 for fully
     *        associative).
     * @param index next-use oracle over the trace to be replayed
     *        (AnyReference mode).
     */
    OptimalSetAssocCache(const CacheGeometry &geometry,
                         const NextUseIndex &index);

    void reset() override;
    std::string name() const override { return "optimal-set-assoc"; }

  protected:
    AccessOutcome doAccess(const MemRef &ref, Tick tick) override;

  private:
    const NextUseIndex *oracle;
    std::vector<Addr> tags;
    std::vector<bool> valid;
    std::vector<Tick> residentNextUse;
    std::uint32_t waysPerSet;
};

} // namespace dynex

#endif // DYNEX_CACHE_OPTIMAL_H

/**
 * @file
 * The conventional direct-mapped cache: the paper's baseline. Always
 * allocates on miss (most-recent-reference replacement).
 */

#ifndef DYNEX_CACHE_DIRECT_MAPPED_H
#define DYNEX_CACHE_DIRECT_MAPPED_H

#include <vector>

#include "cache/cache.h"

namespace dynex
{

/**
 * A direct-mapped cache with allocate-on-miss. This is the reference
 * point every figure in the paper measures improvement against.
 */
class DirectMappedCache final : public CacheModel
{
  public:
    /** @param geometry must have ways == 1. */
    explicit DirectMappedCache(const CacheGeometry &geometry);

    void reset() override;
    std::string name() const override { return "direct-mapped"; }

    /** @return true iff @p addr's block is currently resident. */
    bool contains(Addr addr) const;

    /** @return the resident block number of @p set (kAddrInvalid if
     * the line is invalid). */
    Addr residentBlock(std::uint64_t set) const;

  protected:
    AccessOutcome doAccess(const MemRef &ref, Tick tick) override;

  private:
    AccessOutcome
    stepBlock(Addr block)
    {
        const std::uint64_t set = block & setMask;

        AccessOutcome outcome;
        if (valid[set] && tags[set] == block) {
            outcome.hit = true;
            return outcome;
        }

        if (valid[set]) {
            outcome.evicted = true;
            outcome.victimBlock = tags[set];
        } else {
            noteColdMiss();
        }
        tags[set] = block;
        valid[set] = true;
        outcome.filled = true;
        return outcome;
    }

    std::vector<Addr> tags;   ///< resident block number per line
    std::vector<bool> valid;
    Addr setMask = 0;         ///< numSets - 1, cached off the geometry
};

} // namespace dynex

#endif // DYNEX_CACHE_DIRECT_MAPPED_H

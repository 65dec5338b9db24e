#include "cache/optimal.h"

#include "util/logging.h"

namespace dynex
{

OptimalDirectMappedCache::OptimalDirectMappedCache(
    const CacheGeometry &geometry, const NextUseIndex &index,
    bool use_last_line)
    : CacheModel(geometry), oracle(&index), lastLineEnabled(use_last_line)
{
    DYNEX_ASSERT(geometry.ways == 1,
                 "optimal cache models a direct-mapped cache");
    DYNEX_ASSERT(index.blockSize() == geometry.lineBytes,
                 "next-use index granularity ", index.blockSize(),
                 " != line size ", geometry.lineBytes);
    DYNEX_ASSERT(index.mode() == NextUseMode::AnyReference || use_last_line,
                 "RunStart index requires the last-line register");
    tags.assign(geo.numLines(), 0);
    valid.assign(geo.numLines(), false);
    residentNextUse.assign(geo.numLines(), kTickInfinity);
    setMask = geo.numSets() - 1;
}

void
OptimalDirectMappedCache::reset()
{
    std::fill(valid.begin(), valid.end(), false);
    std::fill(residentNextUse.begin(), residentNextUse.end(),
              kTickInfinity);
    lastBlock = kAddrInvalid;
    lastValid = false;
    resetStats();
}

AccessOutcome
OptimalDirectMappedCache::doAccess(const MemRef &ref, Tick tick)
{
    return stepBlock(geo.blockOf(ref.addr), tick);
}

OptimalSetAssocCache::OptimalSetAssocCache(const CacheGeometry &geometry,
                                           const NextUseIndex &index)
    : CacheModel(geometry), oracle(&index),
      waysPerSet(geometry.linesPerSet())
{
    DYNEX_ASSERT(index.blockSize() == geometry.lineBytes,
                 "next-use index granularity ", index.blockSize(),
                 " != line size ", geometry.lineBytes);
    tags.assign(geo.numLines(), 0);
    valid.assign(geo.numLines(), false);
    residentNextUse.assign(geo.numLines(), kTickInfinity);
}

void
OptimalSetAssocCache::reset()
{
    std::fill(valid.begin(), valid.end(), false);
    std::fill(residentNextUse.begin(), residentNextUse.end(),
              kTickInfinity);
    resetStats();
}

AccessOutcome
OptimalSetAssocCache::doAccess(const MemRef &ref, Tick tick)
{
    DYNEX_ASSERT(tick < oracle->size(), "tick ", tick,
                 " beyond indexed trace of ", oracle->size());
    const Addr block = geo.blockOf(ref.addr);
    const std::uint64_t set = geo.setOf(ref.addr);
    const Tick incoming_next = oracle->nextUse(tick);

    AccessOutcome outcome;
    std::uint32_t invalid_way = waysPerSet;
    std::uint32_t farthest_way = 0;
    Tick farthest = 0;
    for (std::uint32_t w = 0; w < waysPerSet; ++w) {
        const auto idx = set * waysPerSet + w;
        if (!valid[idx]) {
            invalid_way = w;
            continue;
        }
        if (tags[idx] == block) {
            outcome.hit = true;
            residentNextUse[idx] = incoming_next;
            return outcome;
        }
        if (residentNextUse[idx] >= farthest) {
            farthest = residentNextUse[idx];
            farthest_way = w;
        }
    }

    if (invalid_way != waysPerSet) {
        noteColdMiss();
        const auto idx = set * waysPerSet + invalid_way;
        tags[idx] = block;
        valid[idx] = true;
        residentNextUse[idx] = incoming_next;
        outcome.filled = true;
        return outcome;
    }

    // Deny residency to whichever block is referenced farthest in the
    // future: the incoming one (bypass) or the worst resident (evict).
    if (incoming_next >= farthest) {
        outcome.bypassed = true;
        return outcome;
    }
    const auto idx = set * waysPerSet + farthest_way;
    outcome.evicted = true;
    outcome.victimBlock = tags[idx];
    tags[idx] = block;
    residentNextUse[idx] = incoming_next;
    outcome.filled = true;
    return outcome;
}

} // namespace dynex

#include "cache/dynamic_exclusion.h"

#include "util/logging.h"

namespace dynex
{

DynamicExclusionCache::DynamicExclusionCache(
    const CacheGeometry &geometry, const DynamicExclusionConfig &config,
    std::unique_ptr<HitLastStore> store)
    : CacheModel(geometry), cfg(config),
      hitLast(store ? std::move(store)
                    : std::make_unique<IdealHitLastStore>(
                          config.initialHitLast))
{
    DYNEX_ASSERT(geometry.ways == 1,
                 "dynamic exclusion applies to direct-mapped caches");
    DYNEX_ASSERT(cfg.stickyMax >= 1, "stickyMax must be at least 1");
    lines.resize(geo.numLines());
    idealHitLast = dynamic_cast<IdealHitLastStore *>(hitLast.get());
    setMask = geo.numSets() - 1;
}

void
DynamicExclusionCache::reset()
{
    for (auto &line : lines)
        line = ExclusionLine{};
    hitLast->reset();
    events.reset();
    lastBlock = kAddrInvalid;
    lastValid = false;
    resetStats();
}

bool
DynamicExclusionCache::contains(Addr addr) const
{
    const auto &line = lines[geo.setOf(addr)];
    return line.valid && line.tag == geo.blockOf(addr);
}

AccessOutcome
DynamicExclusionCache::doAccess(const MemRef &ref, Tick)
{
    return stepBlock(geo.blockOf(ref.addr));
}

} // namespace dynex

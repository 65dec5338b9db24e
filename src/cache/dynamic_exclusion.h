/**
 * @file
 * The paper's primary contribution as a standalone cache model: a
 * direct-mapped cache whose replacement is governed by the dynamic
 * exclusion FSM, with an optional last-line buffer for line sizes
 * above one instruction (Section 6, scheme 2).
 */

#ifndef DYNEX_CACHE_DYNAMIC_EXCLUSION_H
#define DYNEX_CACHE_DYNAMIC_EXCLUSION_H

#include <array>
#include <memory>
#include <vector>

#include "cache/cache.h"
#include "cache/exclusion_fsm.h"
#include "cache/hit_last.h"

namespace dynex
{

/** Tuning knobs for DynamicExclusionCache. */
struct DynamicExclusionConfig
{
    /** Sticky-counter saturation; 1 is the paper's single sticky bit. */
    std::uint8_t stickyMax = 1;

    /**
     * Serve consecutive references to the most recently referenced
     * line from a last-line buffer, updating FSM state only when the
     * referenced line changes (Section 6, scheme 2). Enable for line
     * sizes above one instruction; keep off at 4B lines, where the
     * paper's FSM observes every access.
     */
    bool useLastLine = false;

    /** Initial hit-last value for never-seen blocks (ideal store). */
    bool initialHitLast = false;
};

/** Per-transition occurrence counts, for analysis and tests. */
struct FsmEventCounts
{
    std::array<Count, 5> byEvent{};

    Count
    of(FsmEvent event) const
    {
        return byEvent[static_cast<std::size_t>(event)];
    }

    void note(FsmEvent event) { ++byEvent[static_cast<std::size_t>(event)]; }

    void reset() { byEvent = {}; }
};

/**
 * Direct-mapped cache with the dynamic exclusion replacement policy.
 *
 * A custom HitLastStore may be supplied to model bounded hit-last
 * storage (the hashed option); by default an IdealHitLastStore holds
 * one exact bit per block, the configuration behind the paper's
 * single-level figures.
 */
class DynamicExclusionCache final : public CacheModel
{
  public:
    /**
     * @param geometry must have ways == 1.
     * @param config policy knobs.
     * @param store hit-last storage; defaults to an ideal store with
     *        config.initialHitLast as the cold value.
     */
    explicit DynamicExclusionCache(const CacheGeometry &geometry,
                                   const DynamicExclusionConfig &config = {},
                                   std::unique_ptr<HitLastStore> store =
                                       nullptr);

    void reset() override;
    std::string name() const override { return "dynamic-exclusion"; }

    /** Per-transition counts since the last reset. */
    const FsmEventCounts &eventCounts() const { return events; }

    /** The hit-last storage in use (for inspection in tests). */
    const HitLastStore &hitLastStore() const { return *hitLast; }

    /** @return true iff @p addr's block is resident in the cache
     * proper (the last-line buffer does not count). */
    bool contains(Addr addr) const;

    const DynamicExclusionConfig &config() const { return cfg; }

  protected:
    AccessOutcome doAccess(const MemRef &ref, Tick tick) override;

  private:
    bool
    lookupHitLast(Addr block) const
    {
        // IdealHitLastStore is final, so this call devirtualizes and
        // the bitmap probe inlines into the replay loop.
        return idealHitLast ? idealHitLast->lookup(block)
                            : hitLast->lookup(block);
    }

    void
    updateHitLast(Addr block, bool value)
    {
        if (idealHitLast)
            idealHitLast->update(block, value);
        else
            hitLast->update(block, value);
    }

    AccessOutcome
    stepBlock(Addr block)
    {
        AccessOutcome outcome;
        if (cfg.useLastLine && lastValid && block == lastBlock) {
            // Sequential reference within the most recent line: served
            // by the last-line buffer; exclusion state is deliberately
            // left untouched (Section 6).
            outcome.hit = true;
            return outcome;
        }
        if (cfg.useLastLine) {
            lastBlock = block;
            lastValid = true;
        }

        const std::uint64_t set = block & setMask;
        const bool h = lookupHitLast(block);
        const FsmStep step =
            exclusionStep(lines[set], block, h, cfg.stickyMax);
        events.note(step.event);
        if (step.newHitLast)
            updateHitLast(block, *step.newHitLast);

        outcome.hit = step.hit;
        outcome.filled = step.allocated && !step.hit;
        outcome.bypassed = step.event == FsmEvent::Bypass;
        outcome.evicted = step.evicted;
        outcome.victimBlock = step.victimTag;
        if (step.event == FsmEvent::ColdFill)
            noteColdMiss();
        return outcome;
    }

    DynamicExclusionConfig cfg;
    std::unique_ptr<HitLastStore> hitLast;
    /** Set iff hitLast is the default IdealHitLastStore: lets the hot
     * path call the final class directly (inlined bitmap probe)
     * instead of dispatching through the HitLastStore vtable. */
    IdealHitLastStore *idealHitLast = nullptr;
    std::vector<ExclusionLine> lines;
    FsmEventCounts events;
    /** The last-line register; lastValid is false until the first
     * reference, since every block value (kAddrInvalid included, at
     * byte granularity) is a real block. */
    Addr lastBlock = kAddrInvalid;
    bool lastValid = false;
    Addr setMask = 0; ///< numSets - 1, cached off the geometry
};

} // namespace dynex

#endif // DYNEX_CACHE_DYNAMIC_EXCLUSION_H

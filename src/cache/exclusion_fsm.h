/**
 * @file
 * The dynamic-exclusion finite state machine of McFarling (ISCA 1992),
 * Figure 1, as a pure per-line transition function shared by the
 * single-level DynamicExclusionCache and the two-level hierarchy.
 *
 * Each cache line carries a sticky state; each *address* carries a
 * hit-last bit h[x] stored outside the line (see hit_last.h for the
 * storage options). On an access to block x when the line holds y:
 *
 *   cold (invalid line)      -> fill x;    s := max; h[x] := 1
 *   hit  (x == y)            ->            s := max; h[x] := 1
 *   miss, s == 0             -> replace y; s := max; h[x] := 1
 *   miss, s > 0, h[x] == 1   -> replace y; s := max; h[x] := 0
 *   miss, s > 0, h[x] == 0   -> BYPASS x;  s := s - 1
 *
 * With the paper's single sticky bit, max == 1. The generalization to
 * a saturating counter (max > 1) is the multiple-sticky-bit extension
 * of WRL TN-22, which can retain a line through the (abc)^n pattern at
 * the cost of longer training.
 */

#ifndef DYNEX_CACHE_EXCLUSION_FSM_H
#define DYNEX_CACHE_EXCLUSION_FSM_H

#include <cstdint>
#include <optional>
#include <string>

#include "util/logging.h"
#include "util/types.h"

namespace dynex
{

/** Per-line state consumed and mutated by the FSM. */
struct ExclusionLine
{
    Addr tag = 0;             ///< resident block number
    bool valid = false;
    std::uint8_t sticky = 0;  ///< saturating inertia counter
    /**
     * L1-side copy of the resident block's hit-last bit. The two-level
     * hierarchy transfers this to the L2 entry when the line is
     * replaced (Section 5 of the paper); single-level caches with an
     * external store can ignore it.
     */
    bool hitLastCopy = false;
};

/** Which FSM transition fired. */
enum class FsmEvent : std::uint8_t
{
    ColdFill,       ///< invalid line filled
    Hit,            ///< resident block referenced
    ReplaceUnsticky,///< conflict won because the line was not sticky
    ReplaceHitLast, ///< conflict won because h[x] granted an override
    Bypass,         ///< conflict lost; x passed through uncached
};

/** @return a short lowercase name for @p event. */
const char *fsmEventName(FsmEvent event);

/** Everything a caller needs to apply one FSM step's side effects. */
struct FsmStep
{
    FsmEvent event = FsmEvent::ColdFill;
    bool hit = false;       ///< x found in the line
    bool allocated = false; ///< x now resident
    /** New value of h[x], if the step writes it. */
    std::optional<bool> newHitLast;
    bool evicted = false;   ///< a valid block was displaced
    Addr victimTag = kAddrInvalid;
    /** The victim's carried hit-last copy (for transfer to L2). */
    bool victimHitLast = false;
};

/**
 * The Figure-1 arc an access takes: the table above's first matching
 * row. This is the one definition of the arc choice; exclusionStep and
 * the sweep kernel both select through it. A chain of selects on
 * plain bools with no side effects, so the kernel's loop compiles it
 * to conditional moves rather than branches.
 *
 * @param valid the line holds a block.
 * @param match the resident block is x.
 * @param unsticky the line's sticky counter is 0.
 * @param hit_last_x the stored h[x].
 */
constexpr FsmEvent
fig1Arc(bool valid, bool match, bool unsticky, bool hit_last_x)
{
    return !valid       ? FsmEvent::ColdFill
           : match      ? FsmEvent::Hit
           : unsticky   ? FsmEvent::ReplaceUnsticky
           : hit_last_x ? FsmEvent::ReplaceHitLast
                        : FsmEvent::Bypass;
}

/**
 * Apply one access to @p line.
 *
 * Defined inline: this is the innermost step of every dynamic-exclusion
 * replay loop, and keeping the body visible lets it fold into the
 * models' stepBlock fast paths without a cross-TU call per reference.
 *
 * @param line the (mutated) cache-line state.
 * @param tag block number of the access.
 * @param hit_last_x the stored h[x] for this block, as looked up by
 *        whatever storage policy the caller uses.
 * @param sticky_max saturation value of the sticky counter (>= 1); the
 *        paper's machine uses 1.
 * @return the step record describing what happened.
 */
inline FsmStep
exclusionStep(ExclusionLine &line, Addr tag, bool hit_last_x,
              std::uint8_t sticky_max = 1)
{
    DYNEX_ASSERT(sticky_max >= 1, "sticky_max must be at least 1");

    FsmStep step;
    step.event = fig1Arc(line.valid, line.tag == tag, line.sticky == 0,
                         hit_last_x);
    switch (step.event) {
      case FsmEvent::Bypass:
        // The resident survives the conflict but loses inertia; x
        // passes through and h[x] is left alone.
        line.sticky = static_cast<std::uint8_t>(line.sticky - 1);
        return step;
      case FsmEvent::Hit:
        step.hit = true;
        break;
      case FsmEvent::ReplaceUnsticky:
      case FsmEvent::ReplaceHitLast:
        step.evicted = true;
        step.victimTag = line.tag;
        step.victimHitLast = line.hitLastCopy;
        [[fallthrough]];
      case FsmEvent::ColdFill:
        step.allocated = true;
        break;
    }

    // Every other arc leaves x resident at full stickiness with
    // h[x] := 1 -- including the unsticky replace, whose incoming block
    // "should have hit the last time it was executed" (the A,!s -> B,s
    // transition). The hit-last override is the exception: it consumes
    // h[x], so the incoming block must prove itself by actually hitting
    // before it can override again.
    const bool hit_last = step.event != FsmEvent::ReplaceHitLast;
    step.newHitLast = hit_last;
    line.tag = tag;
    line.valid = true;
    line.sticky = sticky_max;
    line.hitLastCopy = hit_last;
    return step;
}

} // namespace dynex

#endif // DYNEX_CACHE_EXCLUSION_FSM_H

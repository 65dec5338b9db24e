/**
 * @file
 * Unit tests of the dynamic-exclusion FSM transition function against
 * the transition table reconstructed from Figure 1 of the paper.
 */

#include <gtest/gtest.h>

#include "cache/exclusion_fsm.h"

namespace dynex
{
namespace
{

TEST(ExclusionFsm, ColdFillAllocatesAndSetsHitLast)
{
    ExclusionLine line;
    const FsmStep step = exclusionStep(line, 0x42, /*hit_last_x=*/false);

    EXPECT_EQ(step.event, FsmEvent::ColdFill);
    EXPECT_FALSE(step.hit);
    EXPECT_TRUE(step.allocated);
    ASSERT_TRUE(step.newHitLast.has_value());
    EXPECT_TRUE(*step.newHitLast);
    EXPECT_FALSE(step.evicted);

    EXPECT_TRUE(line.valid);
    EXPECT_EQ(line.tag, 0x42u);
    EXPECT_EQ(line.sticky, 1);
    EXPECT_TRUE(line.hitLastCopy);
}

TEST(ExclusionFsm, HitRearmsStickyAndSetsHitLast)
{
    ExclusionLine line{0x42, true, 0, false};
    const FsmStep step = exclusionStep(line, 0x42, false);

    EXPECT_EQ(step.event, FsmEvent::Hit);
    EXPECT_TRUE(step.hit);
    EXPECT_FALSE(step.allocated);
    ASSERT_TRUE(step.newHitLast.has_value());
    EXPECT_TRUE(*step.newHitLast);
    EXPECT_EQ(line.sticky, 1);
    EXPECT_TRUE(line.hitLastCopy);
}

TEST(ExclusionFsm, UnstickyConflictReplacesAndSetsHitLast)
{
    // The A,!s -> B,s transition: the incoming block "should have hit
    // the last time it was executed", so h[x] is set despite missing.
    ExclusionLine line{0x1, true, 0, true};
    const FsmStep step = exclusionStep(line, 0x2, /*hit_last_x=*/false);

    EXPECT_EQ(step.event, FsmEvent::ReplaceUnsticky);
    EXPECT_FALSE(step.hit);
    EXPECT_TRUE(step.allocated);
    ASSERT_TRUE(step.newHitLast.has_value());
    EXPECT_TRUE(*step.newHitLast);
    EXPECT_TRUE(step.evicted);
    EXPECT_EQ(step.victimTag, 0x1u);
    EXPECT_TRUE(step.victimHitLast);

    EXPECT_EQ(line.tag, 0x2u);
    EXPECT_EQ(line.sticky, 1);
}

TEST(ExclusionFsm, HitLastOverridesStickyAndIsConsumed)
{
    ExclusionLine line{0x1, true, 1, false};
    const FsmStep step = exclusionStep(line, 0x2, /*hit_last_x=*/true);

    EXPECT_EQ(step.event, FsmEvent::ReplaceHitLast);
    EXPECT_TRUE(step.allocated);
    ASSERT_TRUE(step.newHitLast.has_value());
    EXPECT_FALSE(*step.newHitLast) << "h[x] must be reset on the "
                                      "sticky-override load";
    EXPECT_TRUE(step.evicted);
    EXPECT_EQ(step.victimTag, 0x1u);
    EXPECT_EQ(line.tag, 0x2u);
    EXPECT_EQ(line.sticky, 1);
    EXPECT_FALSE(line.hitLastCopy);
}

TEST(ExclusionFsm, StickyConflictWithoutHitLastBypasses)
{
    ExclusionLine line{0x1, true, 1, true};
    const FsmStep step = exclusionStep(line, 0x2, /*hit_last_x=*/false);

    EXPECT_EQ(step.event, FsmEvent::Bypass);
    EXPECT_FALSE(step.hit);
    EXPECT_FALSE(step.allocated);
    EXPECT_FALSE(step.newHitLast.has_value());
    EXPECT_FALSE(step.evicted);

    EXPECT_EQ(line.tag, 0x1u) << "resident survives the conflict";
    EXPECT_EQ(line.sticky, 0) << "but loses its stickiness";
}

TEST(ExclusionFsm, SecondConflictAfterBypassReplaces)
{
    ExclusionLine line{0x1, true, 1, true};
    exclusionStep(line, 0x2, false); // bypass, sticky drops to 0
    const FsmStep step = exclusionStep(line, 0x2, false);

    EXPECT_EQ(step.event, FsmEvent::ReplaceUnsticky);
    EXPECT_EQ(line.tag, 0x2u);
}

TEST(ExclusionFsm, ResidentReExecutionRearmsBetweenConflicts)
{
    // "it will be replaced the next time a conflicting instruction is
    // executed unless the original instruction is executed first"
    ExclusionLine line{0x1, true, 1, true};
    exclusionStep(line, 0x2, false);          // conflict: bypass, s=0
    exclusionStep(line, 0x1, false);          // resident re-executed
    const FsmStep step = exclusionStep(line, 0x2, false);

    EXPECT_EQ(step.event, FsmEvent::Bypass) << "stickiness was re-armed";
    EXPECT_EQ(line.tag, 0x1u);
}

TEST(ExclusionFsm, MultiLevelStickyCounterSurvivesMultipleConflicts)
{
    // The TN-22 extension: with sticky_max = 2, a line survives two
    // conflicts between re-executions.
    ExclusionLine line;
    exclusionStep(line, 0xa, false, 2); // cold fill, sticky = 2

    FsmStep step = exclusionStep(line, 0xb, false, 2);
    EXPECT_EQ(step.event, FsmEvent::Bypass);
    EXPECT_EQ(line.sticky, 1);

    step = exclusionStep(line, 0xc, false, 2);
    EXPECT_EQ(step.event, FsmEvent::Bypass);
    EXPECT_EQ(line.sticky, 0);

    step = exclusionStep(line, 0xb, false, 2);
    EXPECT_EQ(step.event, FsmEvent::ReplaceUnsticky);
    EXPECT_EQ(line.tag, 0xbu);
    EXPECT_EQ(line.sticky, 2);
}

// The arc priority of Figure 1: an invalid line fills whatever else
// holds, a hit beats every conflict rule, and an unsticky line loses
// regardless of h[x].
static_assert(fig1Arc(false, true, true, true) == FsmEvent::ColdFill);
static_assert(fig1Arc(false, false, false, false) == FsmEvent::ColdFill);
static_assert(fig1Arc(true, true, true, true) == FsmEvent::Hit);
static_assert(fig1Arc(true, true, false, false) == FsmEvent::Hit);
static_assert(fig1Arc(true, false, true, true) ==
              FsmEvent::ReplaceUnsticky);
static_assert(fig1Arc(true, false, true, false) ==
              FsmEvent::ReplaceUnsticky);
static_assert(fig1Arc(true, false, false, true) ==
              FsmEvent::ReplaceHitLast);
static_assert(fig1Arc(true, false, false, false) == FsmEvent::Bypass);

/** One row of the Figure-1 table, expanded for one line state. */
struct FsmRow
{
    bool valid;
    bool match;          ///< the line's tag is x
    std::uint8_t sticky; ///< the line's sticky counter before
    bool hitLast;        ///< h[x]
    FsmEvent arc;
    bool hit;
    bool allocated;
    bool evicted;        ///< y displaced: victim fields name it
    std::uint8_t stickyAfter;
    int newHitLast;      ///< -1: h[x] not written
    int copyAfter;       ///< -1: the line's hit-last copy unchanged
};

constexpr FsmEvent kCold = FsmEvent::ColdFill;
constexpr FsmEvent kHit = FsmEvent::Hit;
constexpr FsmEvent kUnsticky = FsmEvent::ReplaceUnsticky;
constexpr FsmEvent kOverride = FsmEvent::ReplaceHitLast;
constexpr FsmEvent kBypass = FsmEvent::Bypass;

// Written out by hand from the table in exclusion_fsm.h's header:
//   cold  -> fill x;    s := max; h[x] := 1
//   hit   ->            s := max; h[x] := 1
//   s = 0 -> replace y; s := max; h[x] := 1
//   h[x]  -> replace y; s := max; h[x] := 0
//   else  -> bypass x;  s := s - 1
// valid match s  h   arc        hit    alloc  evict  s' h[x]' copy'
const FsmRow kStickyMax1[] = {
    {false, false, 0, false, kCold, false, true, false, 1, 1, 1},
    {false, false, 0, true, kCold, false, true, false, 1, 1, 1},
    {false, false, 1, false, kCold, false, true, false, 1, 1, 1},
    {false, false, 1, true, kCold, false, true, false, 1, 1, 1},
    {false, true, 0, false, kCold, false, true, false, 1, 1, 1},
    {false, true, 0, true, kCold, false, true, false, 1, 1, 1},
    {false, true, 1, false, kCold, false, true, false, 1, 1, 1},
    {false, true, 1, true, kCold, false, true, false, 1, 1, 1},
    {true, false, 0, false, kUnsticky, false, true, true, 1, 1, 1},
    {true, false, 0, true, kUnsticky, false, true, true, 1, 1, 1},
    {true, false, 1, false, kBypass, false, false, false, 0, -1, -1},
    {true, false, 1, true, kOverride, false, true, true, 1, 0, 0},
    {true, true, 0, false, kHit, true, false, false, 1, 1, 1},
    {true, true, 0, true, kHit, true, false, false, 1, 1, 1},
    {true, true, 1, false, kHit, true, false, false, 1, 1, 1},
    {true, true, 1, true, kHit, true, false, false, 1, 1, 1},
};

const FsmRow kStickyMax3[] = {
    {false, false, 0, false, kCold, false, true, false, 3, 1, 1},
    {false, false, 0, true, kCold, false, true, false, 3, 1, 1},
    {false, false, 1, false, kCold, false, true, false, 3, 1, 1},
    {false, false, 1, true, kCold, false, true, false, 3, 1, 1},
    {false, false, 2, false, kCold, false, true, false, 3, 1, 1},
    {false, false, 2, true, kCold, false, true, false, 3, 1, 1},
    {false, false, 3, false, kCold, false, true, false, 3, 1, 1},
    {false, false, 3, true, kCold, false, true, false, 3, 1, 1},
    {false, true, 0, false, kCold, false, true, false, 3, 1, 1},
    {false, true, 0, true, kCold, false, true, false, 3, 1, 1},
    {false, true, 1, false, kCold, false, true, false, 3, 1, 1},
    {false, true, 1, true, kCold, false, true, false, 3, 1, 1},
    {false, true, 2, false, kCold, false, true, false, 3, 1, 1},
    {false, true, 2, true, kCold, false, true, false, 3, 1, 1},
    {false, true, 3, false, kCold, false, true, false, 3, 1, 1},
    {false, true, 3, true, kCold, false, true, false, 3, 1, 1},
    {true, false, 0, false, kUnsticky, false, true, true, 3, 1, 1},
    {true, false, 0, true, kUnsticky, false, true, true, 3, 1, 1},
    {true, false, 1, false, kBypass, false, false, false, 0, -1, -1},
    {true, false, 1, true, kOverride, false, true, true, 3, 0, 0},
    {true, false, 2, false, kBypass, false, false, false, 1, -1, -1},
    {true, false, 2, true, kOverride, false, true, true, 3, 0, 0},
    {true, false, 3, false, kBypass, false, false, false, 2, -1, -1},
    {true, false, 3, true, kOverride, false, true, true, 3, 0, 0},
    {true, true, 0, false, kHit, true, false, false, 3, 1, 1},
    {true, true, 0, true, kHit, true, false, false, 3, 1, 1},
    {true, true, 1, false, kHit, true, false, false, 3, 1, 1},
    {true, true, 1, true, kHit, true, false, false, 3, 1, 1},
    {true, true, 2, false, kHit, true, false, false, 3, 1, 1},
    {true, true, 2, true, kHit, true, false, false, 3, 1, 1},
    {true, true, 3, false, kHit, true, false, false, 3, 1, 1},
    {true, true, 3, true, kHit, true, false, false, 3, 1, 1},
};

template <std::size_t N>
void
expectFigure1Table(const FsmRow (&rows)[N], std::uint8_t sticky_max)
{
    constexpr Addr kX = 0x2, kY = 0x1;
    for (const FsmRow &row : rows) {
        // The resident's carried hit-last copy takes both values, so
        // the victim copy and the bypass's untouched copy are seen to
        // come from the line.
        for (const bool copy : {false, true}) {
            SCOPED_TRACE(::testing::Message()
                         << "stickyMax=" << static_cast<int>(sticky_max)
                         << " valid=" << row.valid
                         << " match=" << row.match
                         << " sticky=" << static_cast<int>(row.sticky)
                         << " h=" << row.hitLast << " copy=" << copy);
            const Addr resident = row.match ? kX : kY;
            ExclusionLine line{resident, row.valid, row.sticky, copy};
            const FsmStep step =
                exclusionStep(line, kX, row.hitLast, sticky_max);

            EXPECT_EQ(step.event, row.arc);
            EXPECT_EQ(fig1Arc(row.valid, row.match, row.sticky == 0,
                              row.hitLast),
                      row.arc);
            EXPECT_EQ(step.hit, row.hit);
            EXPECT_EQ(step.allocated, row.allocated);
            EXPECT_EQ(step.evicted, row.evicted);
            EXPECT_EQ(step.victimTag, row.evicted ? kY : kAddrInvalid);
            EXPECT_EQ(step.victimHitLast, row.evicted && copy);
            if (row.newHitLast < 0) {
                EXPECT_FALSE(step.newHitLast.has_value());
            } else {
                ASSERT_TRUE(step.newHitLast.has_value());
                EXPECT_EQ(*step.newHitLast, row.newHitLast == 1);
            }

            EXPECT_TRUE(line.valid);
            EXPECT_EQ(line.tag, row.allocated ? kX : resident);
            EXPECT_EQ(line.sticky, row.stickyAfter);
            EXPECT_EQ(line.hitLastCopy,
                      row.copyAfter < 0 ? copy : row.copyAfter == 1);
        }
    }
}

TEST(ExclusionFsm, EveryLineStateFollowsTheFigure1Table)
{
    expectFigure1Table(kStickyMax1, 1);
    expectFigure1Table(kStickyMax3, 3);
}

TEST(ExclusionFsm, EventNamesAreStable)
{
    EXPECT_STREQ(fsmEventName(FsmEvent::ColdFill), "cold-fill");
    EXPECT_STREQ(fsmEventName(FsmEvent::Hit), "hit");
    EXPECT_STREQ(fsmEventName(FsmEvent::ReplaceUnsticky),
                 "replace-unsticky");
    EXPECT_STREQ(fsmEventName(FsmEvent::ReplaceHitLast),
                 "replace-hit-last");
    EXPECT_STREQ(fsmEventName(FsmEvent::Bypass), "bypass");
}

} // namespace
} // namespace dynex

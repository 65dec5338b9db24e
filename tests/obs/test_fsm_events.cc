/**
 * @file
 * Cross-checks of the FSM event counters against an independent
 * reference implementation of the paper's Figure 1 transition table,
 * on the Section 3 letter patterns, plus the accounting invariants
 * that tie the event counts to the model's CacheStats.
 */

#include <gtest/gtest.h>

#include <array>
#include <unordered_map>

#include "cache/dynamic_exclusion.h"
#include "sim/runner.h"
#include "trace/trace.h"

namespace dynex
{
namespace
{

using EventTally = std::array<Count, 5>;

Count
of(const EventTally &tally, FsmEvent event)
{
    return tally[static_cast<std::size_t>(event)];
}

/**
 * Independent Figure 1 reference: a one-set direct-mapped cache whose
 * lines the letter patterns all conflict in, stepped straight off the
 * transition table as written in the paper —
 *
 *   cold                   -> fill;    s := max; h[x] := 1
 *   hit                    ->          s := max; h[x] := 1
 *   miss, s == 0           -> replace; s := max; h[x] := 1
 *   miss, s > 0, h[x] == 1 -> replace; s := max; h[x] := 0
 *   miss, s > 0, h[x] == 0 -> bypass;  s := s - 1
 *
 * Deliberately shares no code with exclusionStep.
 */
EventTally
figure1Reference(const Trace &trace, std::uint8_t sticky_max)
{
    EventTally tally{};
    bool valid = false;
    Addr resident = 0;
    std::uint8_t sticky = 0;
    std::unordered_map<Addr, bool> hit_last;

    const auto count = [&](FsmEvent event) {
        ++tally[static_cast<std::size_t>(event)];
    };
    for (std::size_t i = 0; i < trace.size(); ++i) {
        const Addr block = trace[i].addr / 32;
        if (!valid) {
            count(FsmEvent::ColdFill);
            valid = true;
            resident = block;
            sticky = sticky_max;
            hit_last[block] = true;
        } else if (resident == block) {
            count(FsmEvent::Hit);
            sticky = sticky_max;
            hit_last[block] = true;
        } else if (sticky == 0) {
            count(FsmEvent::ReplaceUnsticky);
            resident = block;
            sticky = sticky_max;
            hit_last[block] = true;
        } else if (hit_last[block]) {
            count(FsmEvent::ReplaceHitLast);
            resident = block;
            sticky = sticky_max;
            hit_last[block] = false;
        } else {
            count(FsmEvent::Bypass);
            --sticky;
        }
    }
    return tally;
}

/** Run @p trace through the real model (single 32B-line set, FSM
 * observing every access) and return its event counts. */
FsmEventCounts
modelCounts(const Trace &trace, std::uint8_t sticky_max,
            CacheStats *stats_out = nullptr)
{
    DynamicExclusionConfig config;
    config.stickyMax = sticky_max;
    DynamicExclusionCache cache(CacheGeometry::directMapped(32, 32),
                                config);
    const CacheStats stats = runTrace(cache, trace);
    if (stats_out)
        *stats_out = stats;
    return cache.eventCounts();
}

/** The paper's Section 3 patterns, all letters conflicting. */
const char *const kPatterns[] = {
    // (a^10 b)^10: 'a' should stay resident, 'b' should learn to
    // bypass — the motivating case for exclusion.
    "aaaaaaaaaabaaaaaaaaaabaaaaaaaaaabaaaaaaaaaabaaaaaaaaaab"
    "aaaaaaaaaabaaaaaaaaaabaaaaaaaaaabaaaaaaaaaabaaaaaaaaaab",
    // (a^10 b^10)^10: both runs long enough that each deserves the
    // line while it is hot; hit-last flips residency at run edges.
    "aaaaaaaaaabbbbbbbbbbaaaaaaaaaabbbbbbbbbbaaaaaaaaaabbbbbbbbbb"
    "aaaaaaaaaabbbbbbbbbbaaaaaaaaaabbbbbbbbbbaaaaaaaaaabbbbbbbbbb"
    "aaaaaaaaaabbbbbbbbbbaaaaaaaaaabbbbbbbbbbaaaaaaaaaabbbbbbbbbb"
    "aaaaaaaaaabbbbbbbbbb",
    // (ab)^10: pure alternation, the degenerate thrash pattern.
    "abababababababababab",
    // (abc)^7: three-way rotation defeats a single sticky bit.
    "abcabcabcabcabcabcabc",
    // Single run: cold fill plus pure hits.
    "aaaaaaaaaaaaaaaaaaaa",
};

TEST(FsmEventCounts, MatchTheFigure1ReferenceOnPaperPatterns)
{
    for (const char *pattern : kPatterns) {
        for (const std::uint8_t sticky_max : {1, 2, 3}) {
            const Trace trace = Trace::fromPattern(pattern);
            const EventTally expected =
                figure1Reference(trace, sticky_max);
            const FsmEventCounts actual =
                modelCounts(trace, sticky_max);
            for (const FsmEvent event :
                 {FsmEvent::ColdFill, FsmEvent::Hit,
                  FsmEvent::ReplaceUnsticky, FsmEvent::ReplaceHitLast,
                  FsmEvent::Bypass}) {
                EXPECT_EQ(actual.of(event), of(expected, event))
                    << fsmEventName(event) << " on \"" << pattern
                    << "\" with stickyMax "
                    << static_cast<int>(sticky_max);
            }
        }
    }
}

TEST(FsmEventCounts, KnownTalliesForTheMotivatingPattern)
{
    // (a^3 b)^3 with one sticky bit, stepped by hand:
    //   a cold-fills; a,a hit.
    //   b: miss, s=1, h[b]=0 -> bypass (s->0).
    //   a: hit (s->1). a,a hit.
    //   b: miss, s=1, h[b]=0 -> bypass. (b never gains the line:
    //   'a' re-arms sticky before b returns, and h[b] stays 0.)
    //   ... repeating: every b bypasses.
    const Trace trace = Trace::fromPattern("aaabaaabaaab");
    const FsmEventCounts counts = modelCounts(trace, 1);
    EXPECT_EQ(counts.of(FsmEvent::ColdFill), 1u);
    EXPECT_EQ(counts.of(FsmEvent::Hit), 8u);
    EXPECT_EQ(counts.of(FsmEvent::ReplaceUnsticky), 0u);
    EXPECT_EQ(counts.of(FsmEvent::ReplaceHitLast), 0u);
    EXPECT_EQ(counts.of(FsmEvent::Bypass), 3u);
}

TEST(FsmEventCounts, EventsReconcileWithCacheStats)
{
    for (const char *pattern : kPatterns) {
        const Trace trace = Trace::fromPattern(pattern);
        CacheStats stats;
        const FsmEventCounts counts = modelCounts(trace, 1, &stats);
        const Count replaces =
            counts.of(FsmEvent::ReplaceUnsticky) +
            counts.of(FsmEvent::ReplaceHitLast);
        EXPECT_EQ(stats.hits, counts.of(FsmEvent::Hit)) << pattern;
        EXPECT_EQ(stats.misses, counts.of(FsmEvent::ColdFill) +
                                    replaces +
                                    counts.of(FsmEvent::Bypass))
            << pattern;
        EXPECT_EQ(stats.bypasses, counts.of(FsmEvent::Bypass))
            << pattern;
        EXPECT_EQ(stats.fills,
                  counts.of(FsmEvent::ColdFill) + replaces)
            << pattern;
        EXPECT_EQ(stats.evictions, replaces) << pattern;
        EXPECT_EQ(stats.coldMisses, counts.of(FsmEvent::ColdFill))
            << pattern;
    }
}

TEST(FsmEventCounts, TriadResultCarriesTheCounts)
{
    const Trace trace = Trace::fromPattern("abababababababababab");
    const NextUseIndex index(trace, 32, NextUseMode::RunStart);
    const TriadResult triad = runTriad(trace, index, 32, 32);
    EXPECT_EQ(triad.deEvents.of(FsmEvent::Hit), triad.de.hits);
    EXPECT_EQ(triad.deEvents.of(FsmEvent::Bypass),
              triad.de.bypasses);
    Count total = 0;
    for (const FsmEvent event :
         {FsmEvent::ColdFill, FsmEvent::Hit, FsmEvent::ReplaceUnsticky,
          FsmEvent::ReplaceHitLast, FsmEvent::Bypass})
        total += triad.deEvents.of(event);
    EXPECT_EQ(total, trace.size());
}

} // namespace
} // namespace dynex

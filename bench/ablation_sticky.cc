/**
 * @file
 * Ablation: sticky-counter depth (the WRL TN-22 multiple-sticky-bit
 * extension the paper discusses for the (abc)^n pattern).
 *
 * Paper: extra sticky bits can lock a line through three-way
 * conflicts, but "produce mixed results because additional startup
 * time is required and because the miss rate for other patterns
 * increases".
 */

#include "bench_common.h"
#include "cache/direct_mapped.h"
#include "cache/dynamic_exclusion.h"

namespace
{

/** Misses of a dynamic-exclusion cache on a symbolic pattern. */
dynex::Count
patternMisses(const std::string &pattern, std::uint8_t sticky_max)
{
    using namespace dynex;
    DynamicExclusionConfig config;
    config.stickyMax = sticky_max;
    DynamicExclusionCache cache(CacheGeometry::directMapped(64, 4),
                                config);
    const Trace trace = Trace::fromPattern(pattern, 0x1000, 64);
    return runTrace(cache, trace).misses;
}

std::string
repeatGroup(const std::string &group, int times)
{
    std::string out;
    for (int i = 0; i < times; ++i)
        out += group;
    return out;
}

} // namespace

int
main()
{
    using namespace dynex;
    using namespace dynex::bench;

    FigureReport report(
        "ablation_sticky",
        "Sticky-counter depth on canonical patterns and the suite",
        "depth 2 rescues (abc)^n; deeper counters slow phase changes "
        "(mixed results, as the paper warns)");

    report.table().setHeader({"workload", "sticky=1", "sticky=2",
                              "sticky=3", "sticky=4"});

    const std::string abc = repeatGroup("abc", 60);
    const std::string phases =
        repeatGroup(repeatGroup("a", 10) + repeatGroup("b", 10), 10);

    report.table().addRow(
        {"(abc)^60 misses", std::to_string(patternMisses(abc, 1)),
         std::to_string(patternMisses(abc, 2)),
         std::to_string(patternMisses(abc, 3)),
         std::to_string(patternMisses(abc, 4))});
    report.table().addRow(
        {"(a^10 b^10)^10 misses",
         std::to_string(patternMisses(phases, 1)),
         std::to_string(patternMisses(phases, 2)),
         std::to_string(patternMisses(phases, 3)),
         std::to_string(patternMisses(phases, 4))});

    // Suite-average miss rates at the canonical configuration.
    std::vector<double> suite_miss(4, 0.0);
    for (const auto &name : suiteNames()) {
        const Trace trace = Workloads::instructions(name, refs());
        for (std::uint8_t depth = 1; depth <= 4; ++depth) {
            DynamicExclusionConfig config;
            config.stickyMax = depth;
            DynamicExclusionCache cache(
                CacheGeometry::directMapped(kCacheBytes, kWordLine),
                config);
            suite_miss[depth - 1] +=
                100.0 * runTrace(cache, trace).missRate();
        }
    }
    std::vector<std::string> row{"suite avg miss % (32KB/4B)"};
    for (double &value : suite_miss) {
        value /= 10.0;
        row.push_back(Table::fmt(value, 3));
    }
    report.table().addRow(row);

    report.verdict(patternMisses(abc, 2) < patternMisses(abc, 1),
                   "a second sticky level rescues the three-way "
                   "conflict pattern");
    report.verdict(patternMisses(phases, 4) > patternMisses(phases, 1),
                   "deeper counters pay extra training on phase "
                   "changes");
    report.verdict(std::abs(suite_miss[1] - suite_miss[0]) <
                       0.3 * suite_miss[0] + 0.05,
                   "on the suite the depths are close (mixed results, "
                   "per the paper)");
    report.finish();
    return report.exitCode();
}

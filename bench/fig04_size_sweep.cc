/**
 * @file
 * Figure 4: average instruction-cache miss rate across the suite for
 * cache sizes 1KB-128KB at 4-byte lines, for the conventional
 * direct-mapped, dynamic-exclusion, and optimal caches.
 */

#include "bench_common.h"

int
main()
{
    using namespace dynex;
    using namespace dynex::bench;

    FigureReport report(
        "fig04",
        "Average instruction-cache miss rate vs cache size (b=4B)",
        "all three curves fall with size; dynamic exclusion tracks "
        "between conventional and optimal");

    report.table().setHeader(
        {"cache", "direct-mapped %", "dynamic-exclusion %", "optimal %"});

    const auto sweep = sweepSuiteAverage(suiteNames(), refs(),
                                         paperCacheSizes(), kWordLine);
    throwIfFailed(sweep.failures);
    const auto &points = sweep.points;

    bool bounded = true;
    bool shrinking = true;
    for (std::size_t i = 0; i < points.size(); ++i) {
        const auto &p = points[i];
        report.table().addRow({formatSize(p.sizeBytes),
                               Table::fmt(p.dmMissPct, 3),
                               Table::fmt(p.deMissPct, 3),
                               Table::fmt(p.optMissPct, 3)});
        bounded = bounded && p.optMissPct <= p.dmMissPct + 1e-9 &&
                  p.optMissPct <= p.deMissPct + 1e-9;
        if (i > 0)
            shrinking = shrinking &&
                p.dmMissPct <= points[i - 1].dmMissPct + 0.05;
    }

    report.verdict(bounded,
                   "optimal lower-bounds both other curves at every "
                   "size");
    report.verdict(shrinking,
                   "the conventional curve falls (or stays flat) with "
                   "cache size");
    report.finish();
    return report.exitCode();
}

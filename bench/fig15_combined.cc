/**
 * @file
 * Figure 15: dynamic exclusion on combined instruction+data caches at
 * 4B lines.
 *
 * Paper: for smaller caches the improvement is nearly as large as for
 * instruction caches (instruction references dominate the misses
 * there); for large caches, where data references dominate, the
 * improvement is smaller.
 */

#include "bench_common.h"

int
main()
{
    using namespace dynex;
    using namespace dynex::bench;

    FigureReport report(
        "fig15",
        "Combined I+D cache dynamic exclusion vs cache size (b=4B)",
        "strong improvement at small sizes (instruction misses "
        "dominate), smaller at large sizes (data dominates)");

    report.table().setHeader({"cache", "direct-mapped %",
                              "dynamic-exclusion %", "optimal %",
                              "de gain %"});

    const auto sweep = sweepSuiteAverage(suiteNames(), refs(),
                                         paperCacheSizes(), kWordLine, {},
                                         StreamKind::Mixed);
    throwIfFailed(sweep.failures);
    const auto &points = sweep.points;

    double best_small = 0.0;
    double gain_large = 0.0;
    for (const auto &p : points) {
        report.table().addRow({formatSize(p.sizeBytes),
                               Table::fmt(p.dmMissPct, 3),
                               Table::fmt(p.deMissPct, 3),
                               Table::fmt(p.optMissPct, 3),
                               Table::fmt(p.deImprovementPct(), 1)});
        if (p.sizeBytes <= 32 * 1024)
            best_small = std::max(best_small, p.deImprovementPct());
        if (p.sizeBytes == 128 * 1024)
            gain_large = p.deImprovementPct();
    }

    report.verdict(best_small > 10.0,
                   "combined caches see a solid improvement at small "
                   "to mid sizes");
    report.verdict(gain_large <= best_small,
                   "the improvement shrinks once data references "
                   "dominate (large caches)");
    report.finish();
    return report.exitCode();
}

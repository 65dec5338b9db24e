/**
 * @file
 * Figure 14: dynamic exclusion applied to the suite's data reference
 * streams at 4B lines.
 *
 * Paper: a small improvement at small cache sizes, and slightly WORSE
 * performance than direct-mapped at larger sizes — data reference
 * patterns differ from instruction patterns and a conventional
 * direct-mapped cache is already closer to optimal on them.
 */

#include "bench_common.h"

int
main()
{
    using namespace dynex;
    using namespace dynex::bench;

    FigureReport report(
        "fig14", "Data-cache dynamic exclusion vs cache size (b=4B)",
        "small gain at small sizes; slightly worse than direct-mapped "
        "at large sizes; less headroom than instruction caches");

    report.table().setHeader({"cache", "direct-mapped %",
                              "dynamic-exclusion %", "optimal %",
                              "de gain %"});

    const auto sweep =
        sweepSuiteAverage(suiteNames(), refs(), paperCacheSizes(),
                          kWordLine, {}, StreamKind::Data);
    throwIfFailed(sweep.failures);
    const auto &points = sweep.points;

    double gain_small_max = 0.0;
    double gain_sum = 0.0;
    bool opt_bounds = true;
    for (const auto &p : points) {
        report.table().addRow({formatSize(p.sizeBytes),
                               Table::fmt(p.dmMissPct, 3),
                               Table::fmt(p.deMissPct, 3),
                               Table::fmt(p.optMissPct, 3),
                               Table::fmt(p.deImprovementPct(), 1)});
        if (p.sizeBytes <= 4 * 1024)
            gain_small_max =
                std::max(gain_small_max, p.deImprovementPct());
        gain_sum += p.deImprovementPct();
        opt_bounds = opt_bounds && p.optMissPct <= p.deMissPct + 1e-9 &&
                     p.optMissPct <= p.dmMissPct + 1e-9;
    }
    const double gain_avg = gain_sum / static_cast<double>(points.size());

    report.note("known deviation: the paper's slight degradation at "
                "large data caches is not reproduced — the synthetic "
                "data streams keep loop structure that real data "
                "references lack (see EXPERIMENTS.md)");
    report.verdict(opt_bounds, "optimal bounds both policies");
    report.verdict(gain_small_max < 6.0,
                   "small data caches see only a small improvement "
                   "(capacity-dominated misses)");
    report.verdict(gain_avg < 12.0,
                   "data caches benefit far less than instruction "
                   "caches overall (paper: less potential to help)");
    report.finish();
    return report.exitCode();
}

/**
 * @file
 * Figure 5: percentage reduction of the suite-average miss rate vs
 * cache size (b=4B) for dynamic exclusion and the optimal cache.
 *
 * Paper: the improvement peaks at ~37% at 32KB and shrinks for very
 * small caches (multi-instruction conflicts defeat the FSM) and very
 * large caches (the programs fit).
 */

#include <algorithm>

#include "bench_common.h"

int
main()
{
    using namespace dynex;
    using namespace dynex::bench;

    FigureReport report(
        "fig05",
        "Instruction-cache miss-rate improvement vs cache size (b=4B)",
        "dynamic exclusion peaks near 37% in the mid sizes; optimal "
        "is higher; both decline toward very small and very large "
        "caches");

    report.table().setHeader(
        {"cache", "dynamic-exclusion gain %", "optimal gain %"});

    const auto sweep = sweepSuiteAverage(suiteNames(), refs(),
                                         paperCacheSizes(), kWordLine);
    throwIfFailed(sweep.failures);
    const auto &points = sweep.points;

    double peak_de = 0.0;
    std::uint64_t peak_size = 0;
    double de_at_128k = 0.0;
    double de_at_1k = 0.0;
    bool de_below_opt = true;
    for (const auto &p : points) {
        const double de_gain = p.deImprovementPct();
        const double opt_gain = p.optImprovementPct();
        report.table().addRow({formatSize(p.sizeBytes),
                               Table::fmt(de_gain, 1),
                               Table::fmt(opt_gain, 1)});
        if (de_gain > peak_de) {
            peak_de = de_gain;
            peak_size = p.sizeBytes;
        }
        if (p.sizeBytes == 128 * 1024)
            de_at_128k = de_gain;
        if (p.sizeBytes == 1024)
            de_at_1k = de_gain;
        de_below_opt = de_below_opt && de_gain <= opt_gain + 1e-9;
    }

    report.note("peak dynamic-exclusion gain: " +
                Table::fmt(peak_de, 1) + "% at " + formatSize(peak_size) +
                " (paper: ~37% at 32KB)");

    report.verdict(peak_de >= 20.0,
                   "peak improvement is substantial (>=20%; paper 37%)");
    report.verdict(peak_size >= 8 * 1024 && peak_size <= 64 * 1024,
                   "the peak falls in the mid cache sizes (paper 32KB)");
    report.verdict(de_at_128k < peak_de && de_at_1k < peak_de,
                   "improvement declines toward both ends of the size "
                   "axis");
    report.verdict(de_below_opt,
                   "dynamic exclusion never exceeds the optimal bound");
    report.finish();
    return report.exitCode();
}

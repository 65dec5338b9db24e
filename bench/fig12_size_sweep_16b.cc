/**
 * @file
 * Figure 12: instruction-cache miss-rate improvement vs cache size at
 * 16-byte lines (the abstract's headline configuration: ~33% average
 * reduction at 32KB with 16B lines).
 */

#include "bench_common.h"

int
main()
{
    using namespace dynex;
    using namespace dynex::bench;

    FigureReport report(
        "fig12",
        "Instruction-cache improvement vs cache size (b=16B)",
        "abstract: ~33% average miss-rate reduction at 32KB with 16B "
        "lines; peak in the mid sizes");

    report.table().setHeader({"cache", "direct-mapped %",
                              "dynamic-exclusion %", "optimal %",
                              "de gain %"});

    DynamicExclusionConfig config;
    config.useLastLine = true;
    const auto sweep = sweepSuiteAverage(suiteNames(), refs(),
                                         paperCacheSizes(), kLine16,
                                         config);
    throwIfFailed(sweep.failures);
    const auto &points = sweep.points;

    double gain_at_32k = 0.0;
    double peak = 0.0;
    for (const auto &p : points) {
        report.table().addRow({formatSize(p.sizeBytes),
                               Table::fmt(p.dmMissPct, 3),
                               Table::fmt(p.deMissPct, 3),
                               Table::fmt(p.optMissPct, 3),
                               Table::fmt(p.deImprovementPct(), 1)});
        if (p.sizeBytes == kCacheBytes)
            gain_at_32k = p.deImprovementPct();
        peak = std::max(peak, p.deImprovementPct());
    }

    report.note("gain at 32KB: " + Table::fmt(gain_at_32k, 1) +
                "% (paper abstract: ~33%)");
    report.verdict(gain_at_32k >= 15.0,
                   "a strong average reduction holds at 32KB/16B "
                   "(paper: 33%)");
    report.verdict(peak >= gain_at_32k,
                   "the peak is at or above the 32KB point");
    report.finish();
    return report.exitCode();
}

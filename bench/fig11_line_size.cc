/**
 * @file
 * Figure 11: instruction-cache performance at 32KB for line sizes
 * 4B-64B, with the last-line buffer (Section 6, scheme 2) in front of
 * the dynamic-exclusion cache for lines above one instruction.
 *
 * Paper: the improvement declines progressively from ~37% at 4B lines
 * to ~25% at 64B lines (internal fragmentation adds conflicts the FSM
 * cannot resolve), while absolute miss rates fall with line size.
 */

#include "bench_common.h"

int
main()
{
    using namespace dynex;
    using namespace dynex::bench;

    FigureReport report(
        "fig11",
        "Instruction-cache performance vs line size (S=32KB)",
        "improvement declines with line size but remains substantial "
        "at 64B (paper: 37% -> 25%)");

    report.table().setHeader({"line", "direct-mapped %",
                              "dynamic-exclusion %", "optimal %",
                              "de gain %"});

    // Lines of one instruction run without the last-line register and
    // longer lines with it, so the suite is swept once per setting.
    std::vector<std::uint32_t> word_lines, long_lines;
    for (const std::uint32_t line : paperLineSizes())
        (line > kWordLine ? long_lines : word_lines).push_back(line);
    DynamicExclusionConfig config;
    auto points = sweepSuiteLineSizes(suiteNames(), refs(), kCacheBytes,
                                      word_lines, config);
    config.useLastLine = true;
    const auto longer = sweepSuiteLineSizes(suiteNames(), refs(),
                                            kCacheBytes, long_lines, config);
    points.insert(points.end(), longer.begin(), longer.end());

    std::vector<double> gains;
    bool rates_fall = true;
    double prev_dm = 1e9;
    for (const auto &p : points) {
        gains.push_back(p.deImprovementPct());
        report.table().addRow({formatSize(p.lineBytes),
                               Table::fmt(p.dmMissPct, 3),
                               Table::fmt(p.deMissPct, 3),
                               Table::fmt(p.optMissPct, 3),
                               Table::fmt(p.deImprovementPct(), 1)});
        rates_fall = rates_fall && p.dmMissPct <= prev_dm + 1e-9;
        prev_dm = p.dmMissPct;
    }

    report.verdict(rates_fall,
                   "absolute miss rates fall with line size (spatial "
                   "locality)");
    report.verdict(gains.back() > 8.0,
                   "a substantial gain survives at 64B lines "
                   "(paper: ~25%)");
    report.verdict(gains.front() >= gains.back() - 2.0,
                   "the relative gain declines (or holds) as lines "
                   "grow (paper: 37% -> 25%)");
    report.finish();
    return report.exitCode();
}

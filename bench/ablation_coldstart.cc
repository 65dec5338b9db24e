/**
 * @file
 * Ablation: cold-start vs steady state. The paper attributes the
 * small nasa7/tomcatv regressions to "a small increase in cold-start
 * misses while the dynamic exclusion state bits are initialized" and
 * notes that on full-length streams the increase is negligible. This
 * bench splits every benchmark's run at a warmup boundary and
 * compares steady-state behavior.
 */

#include "bench_common.h"
#include "cache/direct_mapped.h"
#include "cache/dynamic_exclusion.h"
#include "sim/analysis.h"
#include "util/stats.h"

int
main()
{
    using namespace dynex;
    using namespace dynex::bench;

    FigureReport report(
        "ablation_coldstart",
        "Cold-start vs steady-state dynamic exclusion (32KB, b=4B, "
        "25% warmup)",
        "the FSM's training cost is a one-time effect; steady-state "
        "gains exceed whole-run gains");

    report.table().setHeader({"benchmark", "dm steady %", "de steady %",
                              "steady gain %", "whole-run gain %"});

    const auto geo = CacheGeometry::directMapped(kCacheBytes, kWordLine);

    double steady_gain_sum = 0.0, total_gain_sum = 0.0;
    bool kernels_clean = true;
    for (const auto &name : suiteNames()) {
        const Trace trace = Workloads::instructions(name, refs());

        DirectMappedCache dm(geo);
        const WarmSplit dm_split = runTraceSplit(dm, trace, 0.25);

        DynamicExclusionCache de(geo);
        const WarmSplit de_split = runTraceSplit(de, trace, 0.25);

        const double steady_gain = percentReduction(
            dm_split.steady.missRate(), de_split.steady.missRate());
        const double total_gain = percentReduction(
            dm.stats().missRate(), de.stats().missRate());

        report.table().addRow(
            {name, Table::fmt(100.0 * dm_split.steady.missRate(), 3),
             Table::fmt(100.0 * de_split.steady.missRate(), 3),
             Table::fmt(steady_gain, 1), Table::fmt(total_gain, 1)});
        steady_gain_sum += steady_gain;
        total_gain_sum += total_gain;

        if (name == "nasa7" || name == "tomcatv" || name == "mat300") {
            kernels_clean = kernels_clean &&
                de_split.steady.missRate() <=
                    dm_split.steady.missRate() + 1e-6;
        }
    }

    report.note("suite average gain: steady " +
                Table::fmt(steady_gain_sum / 10, 1) + "% vs whole-run " +
                Table::fmt(total_gain_sum / 10, 1) + "%");
    report.verdict(steady_gain_sum >= total_gain_sum,
                   "steady-state gains exceed whole-run gains (training "
                   "is a one-time cost)");
    report.verdict(kernels_clean,
                   "the kernels' cold-start penalty disappears in "
                   "steady state (paper: negligible on full streams)");
    report.finish();
    return report.exitCode();
}

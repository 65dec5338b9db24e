/**
 * @file
 * Figure 3: instruction cache performance for each benchmark at the
 * canonical 32KB / 4B-line configuration — conventional direct-mapped
 * vs dynamic exclusion vs optimal direct-mapped.
 *
 * Paper: all benchmarks with a high miss rate improve significantly;
 * nasa7 and tomcatv show a slight cold-start increase; dynamic
 * exclusion sits between the conventional and optimal caches.
 */

#include "bench_common.h"

int
main()
{
    using namespace dynex;
    using namespace dynex::bench;

    FigureReport report(
        "fig03",
        "Instruction cache performance per benchmark (S=32KB, b=4B)",
        "high-miss benchmarks improve significantly; nasa7/tomcatv see "
        "only a slight cold-start increase");

    report.table().setHeader({"benchmark", "direct-mapped %",
                              "dynamic-exclusion %", "optimal %",
                              "de reduction %"});

    double avg_dm = 0.0, avg_de = 0.0, avg_opt = 0.0;
    bool ordering_holds = true;
    bool high_miss_improve = true;
    bool kernels_unharmed = true;

    for (const auto &name : suiteNames()) {
        const Trace trace = Workloads::instructions(name, refs());
        const NextUseIndex index(trace, kWordLine,
                                 NextUseMode::RunStart);
        const TriadResult triad =
            runTriad(trace, index, kCacheBytes, kWordLine);

        report.table().addRow({name, Table::fmt(triad.dmMissPct(), 3),
                               Table::fmt(triad.deMissPct(), 3),
                               Table::fmt(triad.optMissPct(), 3),
                               Table::fmt(triad.deImprovementPct(), 1)});

        avg_dm += triad.dmMissPct();
        avg_de += triad.deMissPct();
        avg_opt += triad.optMissPct();

        ordering_holds =
            ordering_holds && triad.optMissPct() <= triad.dmMissPct() +
                                                        1e-9;
        if (triad.dmMissPct() > 1.0) {
            high_miss_improve =
                high_miss_improve && triad.deImprovementPct() > 10.0;
        }
        if (name == "nasa7" || name == "tomcatv" || name == "mat300") {
            kernels_unharmed = kernels_unharmed &&
                triad.deMissPct() - triad.dmMissPct() < 0.1;
        }
    }
    avg_dm /= 10.0;
    avg_de /= 10.0;
    avg_opt /= 10.0;

    report.note("suite average: dm " + Table::fmt(avg_dm, 3) + "%, de " +
                Table::fmt(avg_de, 3) + "%, optimal " +
                Table::fmt(avg_opt, 3) + "%");

    report.verdict(ordering_holds,
                   "optimal lower-bounds the conventional cache on "
                   "every benchmark");
    report.verdict(high_miss_improve,
                   "every high-miss (>1%) benchmark improves by >10% "
                   "under dynamic exclusion");
    report.verdict(kernels_unharmed,
                   "cache-resident kernels see at most a slight "
                   "cold-start increase (paper: nasa7/tomcatv)");
    report.finish();
    return report.exitCode();
}

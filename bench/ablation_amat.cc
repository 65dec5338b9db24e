/**
 * @file
 * Ablation: average memory access time (the paper's Section 1 frame).
 * Set-associative caches pay extra hit-path cycles for their lower
 * miss rates [Hil87, Prz88]; dynamic exclusion reduces misses at
 * direct-mapped hit time, so it should win the AMAT comparison at
 * realistic penalties.
 */

#include "bench_common.h"
#include "cache/direct_mapped.h"
#include "cache/dynamic_exclusion.h"
#include "cache/set_assoc.h"
#include "sim/timing.h"

int
main()
{
    using namespace dynex;
    using namespace dynex::bench;

    FigureReport report(
        "ablation_amat",
        "Average memory access time: direct-mapped vs 2-way vs dynamic "
        "exclusion (32KB, b=16B)",
        "Section 1: direct-mapped wins overall via faster hits; "
        "dynamic exclusion keeps that hit time and removes conflict "
        "misses");

    report.table().setHeader({"benchmark", "dm amat", "2-way amat",
                              "dynex amat"});

    const TimingModel dm_timing = DefaultTimings::directMapped();
    const TimingModel sa_timing = DefaultTimings::setAssociative();

    const auto geo = CacheGeometry::directMapped(kCacheBytes, kLine16);
    DynamicExclusionConfig de_config;
    de_config.useLastLine = true;

    double dm_sum = 0, sa_sum = 0, de_sum = 0;
    for (const auto &name : suiteNames()) {
        const Trace trace = Workloads::instructions(name, refs());

        DirectMappedCache dm(geo);
        SetAssocCache sa(
            CacheGeometry::setAssociative(kCacheBytes, kLine16, 2));
        DynamicExclusionCache de(geo, de_config);

        const double dm_amat = dm_timing.amat(runTrace(dm, trace));
        const double sa_amat = sa_timing.amat(runTrace(sa, trace));
        const double de_amat = dm_timing.amat(runTrace(de, trace));

        report.table().addRow({name, Table::fmt(dm_amat, 4),
                               Table::fmt(sa_amat, 4),
                               Table::fmt(de_amat, 4)});
        dm_sum += dm_amat;
        sa_sum += sa_amat;
        de_sum += de_amat;
    }
    dm_sum /= 10;
    sa_sum /= 10;
    de_sum /= 10;

    report.note("suite AMAT (cycles): dm " + Table::fmt(dm_sum, 4) +
                ", 2-way " + Table::fmt(sa_sum, 4) + ", dynex " +
                Table::fmt(de_sum, 4) + "  (hit 1.0 / +0.4 for 2-way, "
                "penalty 16)");
    report.verdict(dm_sum < sa_sum,
                   "at these costs the direct-mapped cache already "
                   "beats 2-way on AMAT (the premise of the paper)");
    report.verdict(de_sum < dm_sum,
                   "dynamic exclusion improves the winner further at "
                   "unchanged hit time");
    report.finish();
    return report.exitCode();
}

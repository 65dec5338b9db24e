/**
 * @file
 * Ablation: the paper's motivating trade-off (Section 1). Set-
 * associative caches miss less but cycle slower; direct-mapped caches
 * are fast but conflict-prone. Dynamic exclusion aims to recover much
 * of the associativity miss-rate gap at direct-mapped access time.
 */

#include "bench_common.h"
#include "cache/direct_mapped.h"
#include "cache/dynamic_exclusion.h"
#include "cache/set_assoc.h"
#include "util/stats.h"

int
main()
{
    using namespace dynex;
    using namespace dynex::bench;

    FigureReport report(
        "ablation_associativity",
        "Dynamic exclusion vs associativity (32KB, b=16B)",
        "Section 1: set-associative caches have lower miss rates; "
        "dynamic exclusion recovers much of that gap without the "
        "slower access path");

    report.table().setHeader({"benchmark", "direct-mapped %", "2-way %",
                              "4-way %", "dynamic-exclusion %"});

    const auto geo = CacheGeometry::directMapped(kCacheBytes, kLine16);
    DynamicExclusionConfig de_config;
    de_config.useLastLine = true;

    double dm_avg = 0, w2_avg = 0, w4_avg = 0, de_avg = 0;
    for (const auto &name : suiteNames()) {
        const Trace trace = Workloads::instructions(name, refs());

        DirectMappedCache dm(geo);
        SetAssocCache w2(
            CacheGeometry::setAssociative(kCacheBytes, kLine16, 2));
        SetAssocCache w4(
            CacheGeometry::setAssociative(kCacheBytes, kLine16, 4));
        DynamicExclusionCache de(geo, de_config);

        const double dm_pct = 100.0 * runTrace(dm, trace).missRate();
        const double w2_pct = 100.0 * runTrace(w2, trace).missRate();
        const double w4_pct = 100.0 * runTrace(w4, trace).missRate();
        const double de_pct = 100.0 * runTrace(de, trace).missRate();

        report.table().addRow({name, Table::fmt(dm_pct, 3),
                               Table::fmt(w2_pct, 3),
                               Table::fmt(w4_pct, 3),
                               Table::fmt(de_pct, 3)});
        dm_avg += dm_pct;
        w2_avg += w2_pct;
        w4_avg += w4_pct;
        de_avg += de_pct;
    }
    dm_avg /= 10;
    w2_avg /= 10;
    w4_avg /= 10;
    de_avg /= 10;

    const double gap = dm_avg - w2_avg;
    const double recovered = dm_avg - de_avg;
    report.note("suite averages: dm " + Table::fmt(dm_avg, 3) +
                "%, 2-way " + Table::fmt(w2_avg, 3) + "%, 4-way " +
                Table::fmt(w4_avg, 3) + "%, dynamic exclusion " +
                Table::fmt(de_avg, 3) + "%");
    report.note("of the " + Table::fmt(gap, 3) +
                "pp direct-mapped-to-2-way gap, dynamic exclusion "
                "recovers " + Table::fmt(recovered, 3) + "pp");
    report.verdict(w2_avg < dm_avg,
                   "2-way associativity beats direct-mapped on misses "
                   "(the premise)");
    report.verdict(gap > 0 && recovered > 0.4 * gap,
                   "dynamic exclusion recovers a large share of the "
                   "2-way gap at direct-mapped access time");
    report.finish();
    return report.exitCode();
}

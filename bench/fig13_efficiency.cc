/**
 * @file
 * Figure 13 (the paper's table): dynamic-exclusion efficiency — the
 * miss-rate reduction per unit of added area, comparing an 8KB
 * direct-mapped cache extended with dynamic exclusion (a last-line
 * buffer plus four hashed hit-last bits per line: ~3.4% extra area)
 * against simply doubling the capacity to 16KB (100% extra area).
 *
 * Paper: Dsize 3.4% vs 100%; Dmiss ~21% vs ~41%; dynamic exclusion is
 * roughly 15x more efficient per unit area.
 */

#include "bench_common.h"
#include "cache/direct_mapped.h"
#include "cache/dynamic_exclusion.h"
#include "util/stats.h"

int
main()
{
    using namespace dynex;
    using namespace dynex::bench;

    constexpr std::uint64_t kBase = 8 * 1024;
    constexpr std::uint32_t kLine = 16;

    FigureReport report(
        "fig13", "Dynamic-exclusion efficiency (b=16B)",
        "adding dynamic exclusion (~3.4% area) vs doubling capacity "
        "(100% area): the paper finds ~15x better miss reduction per "
        "unit area");

    double dm8 = 0.0, de8 = 0.0, dm16 = 0.0;
    for (const auto &name : suiteNames()) {
        const Trace trace = Workloads::instructions(name, refs());

        DirectMappedCache base(CacheGeometry::directMapped(kBase, kLine));
        dm8 += 100.0 * runTrace(base, trace).missRate();

        DynamicExclusionConfig config;
        config.useLastLine = true;
        DynamicExclusionCache dynex_cache(
            CacheGeometry::directMapped(kBase, kLine), config,
            std::make_unique<HashedHitLastStore>(4 * kBase / kLine,
                                                 false));
        de8 += 100.0 * runTrace(dynex_cache, trace).missRate();

        DirectMappedCache doubled(
            CacheGeometry::directMapped(2 * kBase, kLine));
        dm16 += 100.0 * runTrace(doubled, trace).missRate();
    }
    dm8 /= 10.0;
    de8 /= 10.0;
    dm16 /= 10.0;

    // Area model from the paper: a 16B last-line buffer plus four
    // hit-last bits and one sticky bit per line against the full tag +
    // data array; the paper quotes 3.4% for this configuration.
    const double de_area_pct = 3.4;
    const double double_area_pct = 100.0;
    const double de_miss_gain = percentReduction(dm8, de8);
    const double double_miss_gain = percentReduction(dm8, dm16);
    const double de_efficiency = de_miss_gain / de_area_pct;
    const double double_efficiency = double_miss_gain / double_area_pct;
    const double ratio =
        double_efficiency > 0 ? de_efficiency / double_efficiency : 0.0;

    report.table().setHeader(
        {"design", "extra area %", "miss rate %", "miss reduction %",
         "reduction per area"});
    report.table().setAlignment(
        {Table::Align::Left, Table::Align::Right, Table::Align::Right,
         Table::Align::Right, Table::Align::Right});
    report.table().addRow({"8KB direct-mapped", "-", Table::fmt(dm8, 3),
                           "-", "-"});
    report.table().addRow({"8KB dynamic exclusion",
                           Table::fmt(de_area_pct, 1),
                           Table::fmt(de8, 3),
                           Table::fmt(de_miss_gain, 1),
                           Table::fmt(de_efficiency, 2)});
    report.table().addRow({"16KB direct-mapped",
                           Table::fmt(double_area_pct, 1),
                           Table::fmt(dm16, 3),
                           Table::fmt(double_miss_gain, 1),
                           Table::fmt(double_efficiency, 2)});

    report.note("efficiency ratio (dynamic exclusion vs doubling): " +
                Table::fmt(ratio, 1) + "x (paper: ~15x)");
    report.verdict(de_miss_gain > 0,
                   "dynamic exclusion reduces the 8KB miss rate");
    report.verdict(ratio > 3.0,
                   "dynamic exclusion is several times more "
                   "area-efficient than doubling capacity (paper 15x)");
    report.finish();
    return report.exitCode();
}

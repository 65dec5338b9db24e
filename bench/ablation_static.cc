/**
 * @file
 * Ablation: static (profile-guided) exclusion vs dynamic exclusion —
 * the Section 2 contrast with the compiler-based approach of
 * [McF89, McF91b]. The static profile here is idealized (it is
 * derived from the very trace it is evaluated on, using the optimal
 * cache's bypass votes), yet the FSM adapts per phase where a fixed
 * exclusion set cannot, and needs no profile at all.
 */

#include "bench_common.h"
#include "cache/direct_mapped.h"
#include "cache/dynamic_exclusion.h"
#include "cache/static_exclusion.h"

int
main()
{
    using namespace dynex;
    using namespace dynex::bench;

    FigureReport report(
        "ablation_static",
        "Profile-guided static exclusion vs dynamic exclusion "
        "(32KB, b=4B)",
        "Section 2: reordering/exclusion by profile works but needs "
        "compiler support and frequency data; the hardware FSM does "
        "not");

    report.table().setHeader({"benchmark", "direct-mapped %",
                              "static-exclusion %",
                              "dynamic-exclusion %", "excluded blocks"});

    const auto geo = CacheGeometry::directMapped(kCacheBytes, kWordLine);

    double dm_sum = 0, st_sum = 0, de_sum = 0;
    for (const auto &name : suiteNames()) {
        const Trace trace = Workloads::instructions(name, refs());

        DirectMappedCache dm(geo);
        const double dm_pct = 100.0 * runTrace(dm, trace).missRate();

        const ExclusionProfile profile =
            ExclusionProfile::fromOptimalBypasses(trace, geo);
        StaticExclusionCache fixed(geo, profile);
        const double st_pct =
            100.0 * runTrace(fixed, trace).missRate();

        DynamicExclusionCache de(geo);
        const double de_pct = 100.0 * runTrace(de, trace).missRate();

        report.table().addRow({name, Table::fmt(dm_pct, 3),
                               Table::fmt(st_pct, 3),
                               Table::fmt(de_pct, 3),
                               std::to_string(profile.size())});
        dm_sum += dm_pct;
        st_sum += st_pct;
        de_sum += de_pct;
    }
    dm_sum /= 10;
    st_sum /= 10;
    de_sum /= 10;

    report.note("suite averages: dm " + Table::fmt(dm_sum, 3) +
                "%, static " + Table::fmt(st_sum, 3) + "%, dynamic " +
                Table::fmt(de_sum, 3) + "%");
    report.verdict(st_sum < dm_sum,
                   "an idealized static profile does reduce misses "
                   "(the compiler approach works)");
    report.verdict(de_sum < dm_sum,
                   "the hardware FSM reduces misses without any "
                   "profile or compiler support");
    report.verdict(de_sum < st_sum + 0.35,
                   "dynamic exclusion is competitive with (or better "
                   "than) the idealized static profile");
    report.finish();
    return report.exitCode();
}

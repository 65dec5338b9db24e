/**
 * @file
 * Ablation: victim cache (Jouppi) vs dynamic exclusion, on instruction
 * and data streams.
 *
 * Paper (Section 2): "Victim caches work well for data references
 * where the number of conflicting items may be small. For instruction
 * references, there are usually many more conflicting items than a
 * victim cache can hold. This is where dynamic exclusion is most
 * effective." Also checks the stream-buffer composition claim.
 */

#include "bench_common.h"
#include "cache/direct_mapped.h"
#include "cache/dynamic_exclusion.h"
#include "util/stats.h"
#include "cache/stream_buffer.h"
#include "cache/victim.h"

namespace
{

double
missPct(dynex::CacheModel &cache, const dynex::Trace &trace)
{
    return 100.0 * dynex::runTrace(cache, trace).missRate();
}

} // namespace

int
main()
{
    using namespace dynex;
    using namespace dynex::bench;

    FigureReport report(
        "ablation_victim",
        "Victim cache vs dynamic exclusion (32KB, b=16B)",
        "victim caches absorb the few conflicting data items; "
        "instruction conflicts overflow them, where dynamic exclusion "
        "is most effective");

    report.table().setHeader({"stream", "direct-mapped %", "victim-4 %",
                              "dynamic-exclusion %", "de + stream4 %"});

    const auto geo = CacheGeometry::directMapped(kCacheBytes, kLine16);
    DynamicExclusionConfig de_config;
    de_config.useLastLine = true;

    double i_dm = 0, i_victim = 0, i_de = 0, i_stream = 0;
    double d_dm = 0, d_victim = 0, d_de = 0, d_stream = 0;
    for (const auto &name : suiteNames()) {
        for (const bool data_stream : {false, true}) {
            const Trace trace =
                data_stream ? Workloads::data(name, refs() / 2)
                            : Workloads::instructions(name, refs());

            DirectMappedCache dm(geo);
            VictimCache victim(geo, 4);
            DynamicExclusionCache de(geo, de_config);
            StreamBufferCache de_stream(
                std::make_unique<DynamicExclusionCache>(geo, de_config),
                4);

            const double dm_pct = missPct(dm, trace);
            const double victim_pct = missPct(victim, trace);
            const double de_pct = missPct(de, trace);
            const double stream_pct = missPct(de_stream, trace);
            if (data_stream) {
                d_dm += dm_pct;
                d_victim += victim_pct;
                d_de += de_pct;
                d_stream += stream_pct;
            } else {
                i_dm += dm_pct;
                i_victim += victim_pct;
                i_de += de_pct;
                i_stream += stream_pct;
            }
        }
    }
    for (double *total : {&i_dm, &i_victim, &i_de, &i_stream, &d_dm,
                          &d_victim, &d_de, &d_stream})
        *total /= 10.0;

    report.table().addRow({"instruction", Table::fmt(i_dm, 3),
                           Table::fmt(i_victim, 3), Table::fmt(i_de, 3),
                           Table::fmt(i_stream, 3)});
    report.table().addRow({"data", Table::fmt(d_dm, 3),
                           Table::fmt(d_victim, 3), Table::fmt(d_de, 3),
                           Table::fmt(d_stream, 3)});

    const double victim_i_gain = percentReduction(i_dm, i_victim);
    const double victim_d_gain = percentReduction(d_dm, d_victim);
    const double de_i_gain = percentReduction(i_dm, i_de);

    report.note("victim gain: instructions " +
                Table::fmt(victim_i_gain, 1) + "%, data " +
                Table::fmt(victim_d_gain, 1) + "%; de instruction gain " +
                Table::fmt(de_i_gain, 1) + "%");
    report.verdict(de_i_gain > victim_i_gain,
                   "on instruction streams dynamic exclusion beats a "
                   "small victim cache (too many conflicting items)");
    report.verdict(victim_d_gain >= percentReduction(d_dm, d_de) - 2.0,
                   "on data streams the victim cache is at least "
                   "competitive with dynamic exclusion");
    report.verdict(i_stream <= i_de + 1e-9,
                   "a stream buffer composes with dynamic exclusion "
                   "(prefetching is complementary)");
    report.finish();
    return report.exitCode();
}

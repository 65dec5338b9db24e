/**
 * @file
 * Ablation: the last-line buffer at multi-instruction lines
 * (Section 6). Without it, per-word FSM updates stop the machine from
 * excluding lines and bypassed lines miss on every sequential word.
 */

#include "bench_common.h"
#include "cache/direct_mapped.h"
#include "cache/dynamic_exclusion.h"
#include "cache/exclusion_stream.h"

int
main()
{
    using namespace dynex;
    using namespace dynex::bench;

    FigureReport report(
        "ablation_lastline",
        "Dynamic exclusion with vs without the last-line buffer "
        "(S=32KB, b=16B)",
        "Section 6: naive per-word operation at long lines forfeits "
        "the benefit; the last-line buffer restores it");

    report.table().setHeader({"benchmark", "direct-mapped %",
                              "de naive %", "de + last-line %",
                              "de + stream4 %"});

    double with_buffer_total = 0.0, naive_total = 0.0, dm_total = 0.0,
           stream_total = 0.0;
    for (const auto &name : suiteNames()) {
        const Trace trace = Workloads::instructions(name, refs());

        DirectMappedCache dm(
            CacheGeometry::directMapped(kCacheBytes, kLine16));
        const double dm_pct = 100.0 * runTrace(dm, trace).missRate();

        DynamicExclusionConfig buffered;
        buffered.useLastLine = true;
        DynamicExclusionCache with_buffer(
            CacheGeometry::directMapped(kCacheBytes, kLine16), buffered);
        const double buf_pct =
            100.0 * runTrace(with_buffer, trace).missRate();

        DynamicExclusionConfig raw;
        raw.useLastLine = false;
        DynamicExclusionCache naive(
            CacheGeometry::directMapped(kCacheBytes, kLine16), raw);
        const double naive_pct =
            100.0 * runTrace(naive, trace).missRate();

        ExclusionStreamCache scheme3(
            CacheGeometry::directMapped(kCacheBytes, kLine16), 4);
        const double stream_pct =
            100.0 * runTrace(scheme3, trace).missRate();

        report.table().addRow({name, Table::fmt(dm_pct, 3),
                               Table::fmt(naive_pct, 3),
                               Table::fmt(buf_pct, 3),
                               Table::fmt(stream_pct, 3)});
        dm_total += dm_pct;
        with_buffer_total += buf_pct;
        naive_total += naive_pct;
        stream_total += stream_pct;
    }

    report.note("suite averages: dm " + Table::fmt(dm_total / 10, 3) +
                "%, naive " + Table::fmt(naive_total / 10, 3) +
                "%, last-line " + Table::fmt(with_buffer_total / 10, 3) +
                "%, stream " + Table::fmt(stream_total / 10, 3) + "%");
    report.verdict(with_buffer_total < dm_total,
                   "with the buffer, dynamic exclusion beats "
                   "direct-mapped at 16B lines");
    report.verdict(with_buffer_total < naive_total,
                   "the last-line buffer is what makes long lines "
                   "work (naive per-word updates are worse)");
    report.verdict(stream_total <= with_buffer_total + 0.01,
                   "scheme 3 (stream-buffer residence) matches or "
                   "beats scheme 2 by adding prefetch coverage");
    report.finish();
    return report.exitCode();
}

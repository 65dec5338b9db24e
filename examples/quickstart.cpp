/**
 * @file
 * Quickstart: the library in ~40 lines. Generates each synthetic SPEC
 * benchmark's instruction stream, replays it through a conventional
 * direct-mapped cache, the dynamic-exclusion cache, and the optimal
 * direct-mapped cache at the paper's canonical 32KB/4B configuration,
 * and prints the comparison (the data behind Figure 3).
 *
 * Usage: dynex_quickstart [refs-per-benchmark]
 */

#include <cstdio>
#include <cstdlib>

#include "sim/runner.h"
#include "sim/workloads.h"
#include "tracegen/spec.h"
#include "util/table.h"

int
main(int argc, char **argv)
{
    using namespace dynex;

    const Count refs = argc > 1 ? std::strtoull(argv[1], nullptr, 10)
                                : Workloads::defaultRefs();
    constexpr std::uint64_t kCacheBytes = 32 * 1024;
    constexpr std::uint32_t kLineBytes = 4;

    std::printf("dynamic exclusion quickstart: %llu instruction refs "
                "per benchmark, %s cache\n\n",
                static_cast<unsigned long long>(refs),
                CacheGeometry::directMapped(kCacheBytes, kLineBytes)
                    .toString()
                    .c_str());

    Table table;
    table.setHeader({"benchmark", "dm miss%", "dynex miss%", "opt miss%",
                     "dynex gain%", "opt gain%"});

    for (const auto &info : specSuite()) {
        const Trace trace = Workloads::instructions(info.name, refs);
        const NextUseIndex index(trace, kLineBytes,
                                 NextUseMode::RunStart);
        const TriadResult triad =
            runTriad(trace, index, kCacheBytes, kLineBytes);
        table.addRow({info.name, Table::fmt(triad.dmMissPct(), 3),
                      Table::fmt(triad.deMissPct(), 3),
                      Table::fmt(triad.optMissPct(), 3),
                      Table::fmt(triad.deImprovementPct(), 1),
                      Table::fmt(triad.optImprovementPct(), 1)});
    }
    std::printf("%s\n", table.toText().c_str());
    std::printf("gain%% = miss-rate reduction vs the conventional "
                "direct-mapped cache.\n");
    return 0;
}

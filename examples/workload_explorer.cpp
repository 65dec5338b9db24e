/**
 * @file
 * Workload explorer: inspects the synthetic SPEC suite — code
 * footprint, phase-cycle (pass) length, stream composition — and runs
 * the three-way cache comparison, so users can see how each
 * benchmark's structure drives its conflict behavior.
 *
 * Usage: dynex_workload_explorer [refs-per-benchmark]
 */

#include <cstdio>
#include <cstdlib>

#include "sim/analysis.h"
#include "sim/runner.h"
#include "sim/workloads.h"
#include "tracegen/executor.h"
#include "tracegen/spec.h"
#include "util/string_utils.h"
#include "util/table.h"

int
main(int argc, char **argv)
{
    using namespace dynex;

    const Count refs = argc > 1 ? std::strtoull(argv[1], nullptr, 10)
                                : Workloads::defaultRefs();
    constexpr std::uint64_t kCacheBytes = 32 * 1024;
    constexpr std::uint32_t kLineBytes = 4;

    std::printf("synthetic SPEC'89 suite at %llu refs/benchmark\n\n",
                static_cast<unsigned long long>(refs));

    Table table;
    table.setHeader({"benchmark", "code", "pass refs", "data%",
                     "2way sets", "3+way", "dm%", "de%", "opt%",
                     "de gain%"});

    for (const auto &info : specSuite()) {
        auto program = makeSpecProgram(info.name);
        const Count pass = measurePassLength(*program, 1);

        const Trace mixed = Workloads::mixed(info.name, refs);
        const TraceSummary summary = mixed.summarize();
        const double data_pct =
            100.0 * static_cast<double>(summary.loads + summary.stores) /
            static_cast<double>(summary.total);

        const Trace itrace = Workloads::instructions(info.name, refs);
        const NextUseIndex index(itrace, kLineBytes,
                                 NextUseMode::RunStart);
        const TriadResult triad =
            runTriad(itrace, index, kCacheBytes, kLineBytes);
        const ConflictCensus census = conflictCensus(
            itrace,
            CacheGeometry::directMapped(kCacheBytes, kLineBytes));

        table.addRow({info.name, formatSize(program->codeFootprint()),
                      std::to_string(pass), Table::fmt(data_pct, 1),
                      std::to_string(census.twoWay()),
                      std::to_string(census.multiWay()),
                      Table::fmt(triad.dmMissPct(), 3),
                      Table::fmt(triad.deMissPct(), 3),
                      Table::fmt(triad.optMissPct(), 3),
                      Table::fmt(triad.deImprovementPct(), 1)});
    }
    std::printf("%s\n", table.toText().c_str());
    std::printf("pass refs = references per full cycle of the "
                "program's phases;\n2way/3+way = contested sets at %s "
                "(two-way sets are dynamic exclusion's headroom);\n"
                "triad columns are instruction-cache miss rates at the "
                "same geometry.\n",
                CacheGeometry::directMapped(kCacheBytes, kLineBytes)
                    .toString()
                    .c_str());
    return 0;
}

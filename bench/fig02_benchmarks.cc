/**
 * @file
 * Figure 2: the SPEC benchmarks used for evaluation — here, the
 * synthetic suite standing in for them, with the structural properties
 * that drive each benchmark's cache behavior.
 */

#include "bench_common.h"
#include "tracegen/executor.h"

int
main()
{
    using namespace dynex;
    using namespace dynex::bench;

    FigureReport report(
        "fig02", "SPEC benchmarks used for evaluation",
        "ten benchmarks: doduc, eqntott, espresso, fpppp, gcc, li, "
        "mat300, nasa7, spice, tomcatv");

    report.table().setHeader(
        {"benchmark", "description", "code", "pass refs", "ifetch%"});

    bool all_present = true;
    for (const auto &info : specSuite()) {
        auto program = makeSpecProgram(info.name);
        const Count pass = measurePassLength(*program, 1);
        const Trace trace = Workloads::mixed(info.name, 200000);
        const TraceSummary summary = trace.summarize();
        report.table().addRow(
            {info.name, info.description,
             formatSize(program->codeFootprint()), std::to_string(pass),
             Table::fmt(100.0 * static_cast<double>(summary.ifetches) /
                            static_cast<double>(summary.total),
                        1)});
        all_present = all_present && !info.description.empty();
    }

    report.note("code = allocated code address span; pass refs = "
                "references per full phase cycle");
    report.verdict(report.table().rowCount() == 10 && all_present,
                   "all ten paper benchmarks are modeled");
    report.finish();
    return report.exitCode();
}

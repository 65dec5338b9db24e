/**
 * @file
 * Figures 7, 8 and 9: the two-level hierarchy study (L1=32KB, b=4B)
 * over relative L2 sizes, for the conventional baseline and each
 * hit-last storage policy. One suite sweep feeds all three reports,
 * and each benchmark is generated once and replayed at every ratio
 * and policy.
 *
 * For the hashed policy the L1-side hit-last table scales with the
 * ratio (ratio entries per L1 line), matching the paper's reading of
 * Figure 7 that "the hashing strategy needs only four hit-last bits
 * for each cache line to get good performance".
 *
 * Paper:
 *  - Figure 7 (L1 miss rate): assume-hit has slightly fewer L1 misses
 *    for most sizes but degenerates to conventional behavior when
 *    L2 == L1; most of the performance is reached once L2 >= 4x L1.
 *  - Figure 8 (L2 global miss rate): assume-miss is best for the L2
 *    because it maximizes the difference between the two levels;
 *    hashed also improves the L2; assume-hit does not help because
 *    everything in L1 is also in L2.
 *  - Figure 9: the percentage improvement of the L1 miss rate over
 *    the conventional hierarchy, per policy.
 */

#include <vector>

#include "bench_common.h"
#include "cache/hierarchy.h"
#include "util/stats.h"

namespace
{

using namespace dynex;
using namespace dynex::bench;

/** Suite-averaged results at one relative L2 size. */
struct HierarchyRow
{
    std::uint64_t ratio = 0; ///< L2 size / L1 size

    // L1 miss rates (percent of all references).
    double l1Dm = 0.0;
    double l1AssumeHit = 0.0;
    double l1AssumeMiss = 0.0;
    double l1Hashed = 0.0;
    double l1Ideal = 0.0;

    // L2 global miss rates (L2 misses per total reference, percent).
    double l2Dm = 0.0;
    double l2AssumeHit = 0.0;
    double l2AssumeMiss = 0.0;
    double l2Hashed = 0.0;
    double l2Ideal = 0.0;
};

/**
 * The suite-averaged sweep over the relative L2 sizes 1..64 at the
 * canonical 32KB L1. Every row sums its benchmarks in suite order.
 */
std::vector<HierarchyRow>
hierarchySweep()
{
    std::vector<HierarchyRow> rows;
    for (const std::uint64_t ratio : {1, 2, 4, 8, 16, 32, 64})
        rows.push_back({ratio});

    const auto names = suiteNames();
    for (const auto &name : names) {
        const Trace trace = Workloads::instructions(name, refs());
        for (HierarchyRow &row : rows) {
            auto run = [&](bool dynex_l1, HitLastPolicy policy) {
                HierarchyConfig config;
                config.l1 =
                    CacheGeometry::directMapped(kCacheBytes, kWordLine);
                config.l2 = CacheGeometry::directMapped(
                    kCacheBytes * row.ratio, kWordLine);
                config.l1DynamicExclusion = dynex_l1;
                config.policy = policy;
                config.hashedEntriesPerLine =
                    static_cast<std::uint32_t>(row.ratio);
                TwoLevelCache hierarchy(config);
                return runTrace(hierarchy, trace);
            };

            const auto dm = run(false, HitLastPolicy::Ideal);
            const auto hit = run(true, HitLastPolicy::AssumeHit);
            const auto miss = run(true, HitLastPolicy::AssumeMiss);
            const auto hashed = run(true, HitLastPolicy::Hashed);
            const auto ideal = run(true, HitLastPolicy::Ideal);

            row.l1Dm += 100.0 * dm.l1.missRate();
            row.l1AssumeHit += 100.0 * hit.l1.missRate();
            row.l1AssumeMiss += 100.0 * miss.l1.missRate();
            row.l1Hashed += 100.0 * hashed.l1.missRate();
            row.l1Ideal += 100.0 * ideal.l1.missRate();

            row.l2Dm += 100.0 * dm.l2GlobalMissRate();
            row.l2AssumeHit += 100.0 * hit.l2GlobalMissRate();
            row.l2AssumeMiss += 100.0 * miss.l2GlobalMissRate();
            row.l2Hashed += 100.0 * hashed.l2GlobalMissRate();
            row.l2Ideal += 100.0 * ideal.l2GlobalMissRate();
        }
    }

    const auto n = static_cast<double>(names.size());
    for (HierarchyRow &row : rows) {
        row.l1Dm /= n;
        row.l1AssumeHit /= n;
        row.l1AssumeMiss /= n;
        row.l1Hashed /= n;
        row.l1Ideal /= n;
        row.l2Dm /= n;
        row.l2AssumeHit /= n;
        row.l2AssumeMiss /= n;
        row.l2Hashed /= n;
        row.l2Ideal /= n;
    }
    return rows;
}

/** Figure 7: dynamic-exclusion L1 miss rate for the three hit-last
 * storage options as the relative L2 size grows. */
int
figure7(const std::vector<HierarchyRow> &rows)
{
    FigureReport report(
        "fig07",
        "Dynamic-exclusion L1 miss rate vs relative L2 size "
        "(L1=32KB, b=4B)",
        "assume-hit degenerates at ratio 1; all options near-ideal by "
        "ratio 4");

    report.table().setHeader({"L2/L1", "conventional %", "assume-hit %",
                              "assume-miss %", "hashed %", "ideal %"});

    bool degenerate_at_one = false;
    bool near_ideal_at_four = true;
    int assume_hit_best = 0;
    for (const auto &row : rows) {
        report.table().addRow({std::to_string(row.ratio),
                               Table::fmt(row.l1Dm, 3),
                               Table::fmt(row.l1AssumeHit, 3),
                               Table::fmt(row.l1AssumeMiss, 3),
                               Table::fmt(row.l1Hashed, 3),
                               Table::fmt(row.l1Ideal, 3)});
        if (row.ratio == 1) {
            degenerate_at_one =
                std::abs(row.l1AssumeHit - row.l1Dm) < 0.15 * row.l1Dm;
        }
        if (row.ratio >= 4) {
            const double budget =
                row.l1Ideal + 0.35 * (row.l1Dm - row.l1Ideal);
            near_ideal_at_four = near_ideal_at_four &&
                row.l1AssumeHit <= budget &&
                row.l1AssumeMiss <= budget && row.l1Hashed <= budget;
        }
        if (row.ratio >= 2 &&
            row.l1AssumeHit <=
                std::min(row.l1AssumeMiss, row.l1Hashed) + 0.01) {
            ++assume_hit_best;
        }
    }

    report.verdict(degenerate_at_one,
                   "assume-hit with L2 == L1 degenerates to "
                   "conventional direct-mapped behavior");
    report.verdict(near_ideal_at_four,
                   "all three options capture most of the ideal gain "
                   "once the ratio reaches 4 (paper's four bits/line)");
    report.verdict(assume_hit_best >= 3,
                   "assume-hit has slightly the fewest L1 misses for "
                   "most L2 sizes (paper: assuming instructions will "
                   "hit is usually correct)");
    report.finish();
    return report.exitCode();
}

/** Figure 8: L2 global miss rate vs L2 size for the three hit-last
 * storage options and the conventional baseline. */
int
figure8(const std::vector<HierarchyRow> &rows)
{
    FigureReport report(
        "fig08", "L2 global miss rate vs L2 size (L1=32KB, b=4B)",
        "assume-miss < hashed < assume-hit ~= conventional");

    report.table().setHeader({"L2 size", "conventional %",
                              "assume-hit %", "assume-miss %",
                              "hashed %"});

    bool exclusive_wins = true;
    bool assume_hit_matches_dm = true;
    bool falls_with_size = true;
    double prev_dm = 1e9;
    for (const auto &row : rows) {
        report.table().addRow(
            {formatSize(kCacheBytes * row.ratio),
             Table::fmt(row.l2Dm, 3), Table::fmt(row.l2AssumeHit, 3),
             Table::fmt(row.l2AssumeMiss, 3),
             Table::fmt(row.l2Hashed, 3)});

        // At ratio 1 every configuration thrashes the tiny L2 equally;
        // the separation the paper plots appears once L2 > L1.
        if (row.ratio >= 2) {
            exclusive_wins = exclusive_wins &&
                row.l2AssumeMiss <= row.l2AssumeHit + 1e-9 &&
                row.l2Hashed <= row.l2AssumeHit + 0.02;
            assume_hit_matches_dm = assume_hit_matches_dm &&
                std::abs(row.l2AssumeHit - row.l2Dm) <=
                    0.25 * row.l2Dm + 0.02;
        }
        falls_with_size = falls_with_size && row.l2Dm <= prev_dm + 1e-9;
        prev_dm = row.l2Dm;
    }

    report.verdict(exclusive_wins,
                   "the exclusive-style policies (assume-miss, hashed) "
                   "give the L2 a lower global miss rate");
    report.verdict(assume_hit_matches_dm,
                   "assume-hit tracks the conventional L2 (inclusion "
                   "buys the L2 nothing)");
    report.verdict(falls_with_size,
                   "the conventional L2 curve falls with size");
    report.finish();
    return report.exitCode();
}

/** Figure 9: percentage improvement of the dynamic-exclusion L1 miss
 * rate over the conventional hierarchy, per hit-last storage option. */
int
figure9(const std::vector<HierarchyRow> &rows)
{
    FigureReport report(
        "fig09",
        "Dynamic-exclusion L1 improvement vs L2 size (L1=32KB, b=4B)",
        "improvement saturates once L2 >= 4x L1; assume-hit starts at "
        "zero (degenerate) and catches up");

    report.table().setHeader({"L2/L1", "assume-hit gain %",
                              "assume-miss gain %", "hashed gain %",
                              "ideal gain %"});

    double hit_gain_at_1 = 0.0;
    double hit_gain_at_64 = 0.0;
    bool saturates = true;
    for (const auto &row : rows) {
        const double hit_gain =
            percentReduction(row.l1Dm, row.l1AssumeHit);
        const double miss_gain =
            percentReduction(row.l1Dm, row.l1AssumeMiss);
        const double hashed_gain =
            percentReduction(row.l1Dm, row.l1Hashed);
        const double ideal_gain =
            percentReduction(row.l1Dm, row.l1Ideal);
        report.table().addRow({std::to_string(row.ratio),
                               Table::fmt(hit_gain, 1),
                               Table::fmt(miss_gain, 1),
                               Table::fmt(hashed_gain, 1),
                               Table::fmt(ideal_gain, 1)});
        if (row.ratio == 1)
            hit_gain_at_1 = hit_gain;
        if (row.ratio == 64)
            hit_gain_at_64 = hit_gain;
        if (row.ratio >= 4) {
            saturates = saturates &&
                hit_gain >= 0.6 * ideal_gain &&
                miss_gain >= 0.6 * ideal_gain &&
                hashed_gain >= 0.6 * ideal_gain;
        }
    }

    report.verdict(hit_gain_at_1 < 5.0,
                   "assume-hit gains almost nothing at L2 == L1 "
                   "(degenerate)");
    report.verdict(hit_gain_at_64 > 10.0,
                   "assume-hit recovers the dynamic-exclusion gain "
                   "with a large L2");
    report.verdict(saturates,
                   "most of the ideal gain is reached at ratio >= 4");
    report.finish();
    return report.exitCode();
}

} // namespace

int
main()
{
    const auto rows = hierarchySweep();
    const int fig7 = figure7(rows);
    const int fig8 = figure8(rows);
    const int fig9 = figure9(rows);
    return fig7 | fig8 | fig9;
}

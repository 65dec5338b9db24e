/**
 * @file
 * Hierarchy tuning: a design-space walk for an on-chip two-level
 * cache. Given a workload, it compares hit-last storage policies and
 * L2 sizes and recommends the smallest configuration within a few
 * percent of the best L1 and L2 miss rates — the Section 5 trade-off
 * ("most of the performance is achieved as long as the L2 cache is at
 * least 4 times as large as the L1").
 *
 * Usage: dynex_hierarchy_tuning [benchmark] [refs]
 */

#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "cache/hierarchy.h"
#include "sim/runner.h"
#include "sim/workloads.h"
#include "tracegen/spec.h"
#include "util/string_utils.h"
#include "util/table.h"

int
main(int argc, char **argv)
{
    using namespace dynex;

    const std::string benchmark = argc > 1 ? argv[1] : "gcc";
    if (!isSpecBenchmark(benchmark)) {
        std::fprintf(stderr, "unknown benchmark '%s'; choose from:",
                     benchmark.c_str());
        for (const auto &info : specSuite())
            std::fprintf(stderr, " %s", info.name.c_str());
        std::fprintf(stderr, "\n");
        return 1;
    }
    const Count refs = argc > 2 ? std::strtoull(argv[2], nullptr, 10)
                                : Workloads::defaultRefs();

    constexpr std::uint64_t kL1 = 32 * 1024;
    constexpr std::uint32_t kLine = 4;
    const Trace trace = Workloads::instructions(benchmark, refs);

    std::printf("two-level hierarchy tuning for '%s' (L1 = 32KB/4B, "
                "%llu refs)\n\n",
                benchmark.c_str(),
                static_cast<unsigned long long>(refs));

    Table table;
    table.setHeader({"L2 size", "policy", "L1 miss %", "L2 global %",
                     "state bits"});

    struct Candidate
    {
        std::uint64_t l2Bytes;
        HitLastPolicy policy;
        double l1Pct;
        double l2Pct;
    };
    std::vector<Candidate> candidates;

    for (const std::uint64_t ratio : {2ull, 4ull, 8ull, 16ull}) {
        for (const HitLastPolicy policy :
             {HitLastPolicy::AssumeHit, HitLastPolicy::AssumeMiss,
              HitLastPolicy::Hashed}) {
            HierarchyConfig config;
            config.l1 = CacheGeometry::directMapped(kL1, kLine);
            config.l2 =
                CacheGeometry::directMapped(kL1 * ratio, kLine);
            config.policy = policy;
            config.hashedEntriesPerLine = 4;
            TwoLevelCache hierarchy(config);
            const HierarchyStats stats = runTrace(hierarchy, trace);

            const std::uint64_t state_bits =
                policy == HitLastPolicy::Hashed
                    ? config.l1.numLines() * (1 + 4)
                    : config.l1.numLines() * 2 + config.l2.numLines();
            candidates.push_back({kL1 * ratio, policy,
                                  100.0 * stats.l1.missRate(),
                                  100.0 * stats.l2GlobalMissRate()});
            table.addRow({formatSize(kL1 * ratio),
                          hitLastPolicyName(policy),
                          Table::fmt(candidates.back().l1Pct, 3),
                          Table::fmt(candidates.back().l2Pct, 3),
                          std::to_string(state_bits)});
        }
    }
    std::printf("%s\n", table.toText().c_str());

    // Recommend: smallest configuration whose L1 and L2 are within 5%
    // (relative) of the best observed.
    double best_l1 = 1e9, best_l2 = 1e9;
    for (const auto &c : candidates) {
        best_l1 = std::min(best_l1, c.l1Pct);
        best_l2 = std::min(best_l2, c.l2Pct);
    }
    for (const auto &c : candidates) {
        if (c.l1Pct <= best_l1 * 1.05 + 0.01 &&
            c.l2Pct <= best_l2 * 1.05 + 0.01) {
            std::printf("recommended: %s L2 with the %s policy "
                        "(L1 %.3f%%, L2 global %.3f%%)\n",
                        formatSize(c.l2Bytes).c_str(),
                        hitLastPolicyName(c.policy), c.l1Pct, c.l2Pct);
            break;
        }
    }
    std::printf("\nrule of thumb (paper, Section 5): an L2 four times "
                "the L1 already captures most of the benefit, and the "
                "hashed option needs only ~4 hit-last bits per L1 "
                "line.\n");
    return 0;
}

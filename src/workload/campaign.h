/**
 * @file
 * The campaign DSL: one declarative `.dxc` file describing a sweep
 * campaign — which traces to run (suite benchmarks, trace files, or
 * external-format imports), which models to report, the cache-size
 * and line-size axes, the replay engine, and the output sinks.
 *
 *   campaign "paper-axis" {
 *     trace bench espresso;
 *     trace file "traces/li.dxt2" as li;
 *     trace import "traces/gcc.txt" format text as gcc;
 *     models dm, dynex, opt;
 *     sizes 1KB, 2KB, 4KB, 8KB;
 *     lines 4, 16;
 *     refs 100000;
 *     engine kernel;
 *     sticky 1;
 *     output json "campaign.json";
 *     output csv "campaign.csv";
 *   }
 *
 * '#' starts a comment. Statements end with ';'. Defaults: models =
 * dm, dynex, opt; sizes = the paper's 1KB..128KB axis; lines = 16;
 * engine = kernel; sticky = 1; refs = 0 (the suite default budget).
 * `engine batched` names the retired batched engine and runs the
 * kernel.
 *
 * The hand-rolled recursive-descent parser produces a validated
 * CampaignSpec or a structured CorruptInput/ResourceLimit status
 * naming the offending line; it never crashes on hostile input (the
 * corruption fuzzer runs the whole decode path). Hard caps bound
 * every list so a hostile spec cannot trigger unbounded allocation.
 */

#ifndef DYNEX_WORKLOAD_CAMPAIGN_H
#define DYNEX_WORKLOAD_CAMPAIGN_H

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "sim/kernel.h"
#include "util/status.h"
#include "util/types.h"

namespace dynex
{
namespace workload
{

/** Caps on a parsed campaign (beyond each: ResourceLimit). */
inline constexpr std::size_t kMaxCampaignBytes = 1u << 20;
inline constexpr std::size_t kMaxCampaignTraces = 16;
inline constexpr std::size_t kMaxCampaignSizes = 64;
inline constexpr std::size_t kMaxCampaignLines = 8;
inline constexpr std::size_t kMaxCampaignToken = 4096;

/** Where a campaign trace comes from. */
enum class SourceKind
{
    Bench,  ///< synthetic suite benchmark (ifetch stream)
    File,   ///< DXT1/DXT2/DXT3/din trace file
    Import, ///< external-format file (text or lackey)
};

/** One declared trace. */
struct TraceSource
{
    SourceKind kind = SourceKind::Bench;
    std::string spec;   ///< benchmark name or file path
    std::string format; ///< "text" | "lackey" (imports only)
    std::string label;  ///< report/request name (defaults from spec)
};

/** A validated campaign, ready for the executor. */
struct CampaignSpec
{
    std::string name;
    std::vector<TraceSource> traces;
    /** Models whose columns the report carries (subset of dm, dynex,
     * opt; the sweep engines always compute the full triad). */
    std::vector<std::string> models;
    std::vector<std::uint64_t> sizes;  ///< strictly increasing
    std::vector<std::uint32_t> lines;
    Count refs = 0;          ///< bench generation budget (0 = default)
    ReplayEngine engine = ReplayEngine::Kernel;
    std::uint8_t stickyMax = 1;
    std::string jsonOut; ///< empty = stdout summary only
    std::string csvOut;

    bool hasModel(const std::string &model) const;
};

/** Parse and validate a campaign document. */
Result<CampaignSpec> parseCampaign(std::string_view text);

/** parseCampaign over a file (errors carry the path as context). */
Result<CampaignSpec> parseCampaignFile(const std::string &path);

} // namespace workload
} // namespace dynex

#endif // DYNEX_WORKLOAD_CAMPAIGN_H

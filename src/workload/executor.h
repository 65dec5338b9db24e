/**
 * @file
 * The campaign executor: lowers a validated CampaignSpec onto the
 * checked sweep engines — locally, or onto a remote dynex daemon via
 * the DXP1 client.
 *
 * Every trace source (suite benchmark, trace file, external-format
 * import) is resolved locally first; remote runs then upload each
 * resolved trace by value (PUT) and sweep it by name with the
 * campaign's custom size axis, so the daemon needs no files of its
 * own. Local runs fan sources out across the thread pool, one job per
 * source with its lines as a nested loop; remote runs are serial over
 * one connection. The merged report is byte-identical between local
 * and remote execution, at any worker count, with any replay engine:
 * sweep doubles travel the wire bit-exactly and failure statuses
 * round-trip through statusFromWire to the same toString() text.
 */

#ifndef DYNEX_WORKLOAD_EXECUTOR_H
#define DYNEX_WORKLOAD_EXECUTOR_H

#include <cstdint>
#include <string>

#include "workload/campaign.h"
#include "workload/report.h"

namespace dynex
{
namespace workload
{

/** How to run a campaign. Default: locally, in this process. */
struct CampaignOptions
{
    /** Remote daemon; port 0 = run locally. */
    std::string host = "127.0.0.1";
    std::uint16_t port = 0;
    /** Per-request deadline forwarded to the daemon (0 = none). */
    std::uint32_t deadlineMs = 0;
    /** Client retry policy for remote runs. */
    unsigned retries = 0;
    std::uint32_t backoffMs = 100;
    std::string clientId = "campaign";
};

/**
 * Resolve one trace source into a Trace named after its label. Bench
 * sources generate @p refs references of the suite's instruction
 * stream (0 = the suite default); file and import sources always
 * decode the whole file.
 */
Result<Trace> resolveSource(const TraceSource &source, Count refs);

/**
 * Run the whole campaign and merge every (trace, line, size) leg into
 * one report. Per-leg simulation failures are recorded in the report,
 * not returned as errors; a non-ok status means the campaign itself
 * could not run (unresolvable source, connection failure, rejected
 * request).
 */
Result<CampaignReport> runCampaign(const CampaignSpec &spec,
                                   const CampaignOptions &options = {});

/** Write the spec's declared output sinks (JSON and/or CSV). */
Status writeCampaignOutputs(const CampaignReport &report,
                            const CampaignSpec &spec);

} // namespace workload
} // namespace dynex

#endif // DYNEX_WORKLOAD_EXECUTOR_H

/**
 * @file
 * The merged campaign report: one dynex-metrics-v1 JSON document and
 * one CSV table covering every (trace, line size, cache size) leg of
 * a campaign.
 *
 * The report carries only execution-invariant fields — no wall-clock
 * timings, no worker counts, no host identity — and renders doubles
 * with the shortest round-trippable format, so the same campaign
 * produces byte-identical reports at any worker count, with any
 * replay engine, and whether legs ran locally or on a remote daemon
 * (sweep doubles travel bit-exactly over the wire).
 */

#ifndef DYNEX_WORKLOAD_REPORT_H
#define DYNEX_WORKLOAD_REPORT_H

#include <cstdint>
#include <string>
#include <vector>

namespace dynex
{
namespace workload
{

/** One completed (trace, line, size) point. */
struct CampaignLeg
{
    std::string trace;
    std::uint32_t lineBytes = 0;
    std::uint64_t sizeBytes = 0;
    bool ok = false;
    double dmMissPct = 0.0;
    double deMissPct = 0.0;
    double optMissPct = 0.0;
};

/** One failed leg, with the structured status text. */
struct CampaignFailure
{
    std::string trace;
    std::uint32_t lineBytes = 0;
    std::uint64_t sizeBytes = 0; ///< 0 = the whole (trace, line) leg
    std::string model = "triad";
    std::string status; ///< Status::toString() text
};

/** The merged result of a campaign run, ready to serialize. */
struct CampaignReport
{
    std::string name;
    std::string engine; ///< "kernel" | "per-leg"
    /** Models whose miss columns the report carries. */
    std::vector<std::string> models;
    std::vector<CampaignLeg> legs; ///< (trace, line, size) order
    std::vector<CampaignFailure> failures;

    bool allOk() const { return failures.empty(); }

    /** The JSON document ("dynex-metrics-v1" schema, campaign form). */
    std::string toJson() const;

    /** One CSV row per leg: trace, line_bytes, size_bytes, ok, and a
     * <model>_miss_pct column per requested model. */
    std::string toCsv() const;
};

} // namespace workload
} // namespace dynex

#endif // DYNEX_WORKLOAD_REPORT_H

/**
 * @file
 * Structured run reports for the sweep engine: the metrics registry's
 * leg slots plus the checked engines' failure records, rendered as
 * JSON (`--metrics-out`) and CSV (`--csv-out`).
 *
 * Emission walks legs in registration (leg-index) order and renders
 * numbers with fixed formats, so at the Deterministic detail level —
 * which omits wall-clock timings and the worker count, the only fields
 * that legitimately vary run to run — the report is byte-stable across
 * worker counts and replay engines.
 */

#ifndef DYNEX_OBS_RUN_REPORT_H
#define DYNEX_OBS_RUN_REPORT_H

#include <array>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "obs/metrics.h"

namespace dynex
{
namespace obs
{

/** What a report includes. */
enum class ReportDetail
{
    /** Everything, including wall-clock timings and worker count. */
    Full,
    /** Only worker-count-invariant fields: byte-stable output. */
    Deterministic,
};

/** Identity of the run the report describes. */
struct RunInfo
{
    std::string trace;          ///< trace or suite name
    Count refs = 0;             ///< references per replay
    std::uint32_t lineBytes = 0;
    std::string engine;         ///< "kernel" or "per-leg"
    unsigned workers = 0;       ///< pool size (Full detail only)
};

/** One failed sweep leg, in report form (decoupled from the engine's
 * FailedLeg so obs does not depend on the sim layer). */
struct ReportFailure
{
    std::string bench;
    std::uint64_t sizeBytes = 0; ///< 0 = the whole benchmark failed
    std::string model = "triad";
    std::string status;          ///< Status::toString() text
};

/** A finished sweep's metrics, ready to serialize. */
class RunReport
{
  public:
    RunInfo run;
    std::vector<LegMetrics> legs;       ///< in registration order
    std::vector<ReportFailure> failures;
    /** Counter totals, indexed by Counter. */
    std::array<std::uint64_t, kCounterCount> counters{};
    /**
     * Extra named totals with no Counter slot (the server's
     * per-request-type tallies, queue high-water, TraceStore resident
     * bytes). Emitted as a "server" JSON object, in insertion order,
     * when non-empty; sweeps leave it empty.
     */
    std::vector<std::pair<std::string, std::uint64_t>> extra;

    /**
     * Assemble a report: legs are copied from @p collector in slot
     * order, counter shards are aggregated, and @p failures are
     * attached (legs matching a failure's (bench, size) — or any leg
     * of a bench-wide failure — are marked failed).
     */
    static RunReport build(RunInfo info,
                           const MetricsCollector &collector,
                           std::vector<ReportFailure> failures = {});

    /** The JSON document ("dynex-metrics-v1" schema). */
    std::string toJson(ReportDetail detail = ReportDetail::Full) const;

    /** The sweep table as CSV: one row per leg, miss rates, FSM event
     * counts, and (Full detail) replay timings. */
    std::string toCsv(ReportDetail detail = ReportDetail::Full) const;
};

} // namespace obs
} // namespace dynex

#endif // DYNEX_OBS_RUN_REPORT_H

/**
 * @file
 * Parameter sweeps shared by the figure benches: cache-size sweeps,
 * line-size sweeps, and suite-averaged results.
 */

#ifndef DYNEX_SIM_SWEEP_H
#define DYNEX_SIM_SWEEP_H

#include <string>
#include <vector>

#include "cache/dynamic_exclusion.h"
#include "sim/kernel.h"
#include "sim/parallel.h"
#include "sim/runner.h"
#include "trace/trace.h"
#include "util/status.h"

namespace dynex
{

/** The paper's cache-size axis (1KB to 128KB). */
const std::vector<std::uint64_t> &paperCacheSizes();

/** Most sizes a single sweep axis may carry (campaigns, wire). */
inline constexpr std::size_t kMaxSweepAxisSizes = 64;

/**
 * Validate a caller-supplied cache-size axis at @p line_bytes
 * granularity: non-empty, at most kMaxSweepAxisSizes entries, every
 * size a power of two no smaller than the line, and strictly
 * increasing. Violations yield CorruptInput (ResourceLimit for the
 * count cap) naming the offending size.
 */
Status validateSweepAxis(const std::vector<std::uint64_t> &sizes,
                         std::uint32_t line_bytes);

/** The paper's line-size axis (4B to 64B). */
const std::vector<std::uint32_t> &paperLineSizes();

/** One (cache size, triad) point. */
struct SizeSweepPoint
{
    std::uint64_t sizeBytes = 0;
    double dmMissPct = 0.0;
    double deMissPct = 0.0;
    double optMissPct = 0.0;

    double deImprovementPct() const;
    double optImprovementPct() const;
};

/**
 * Run the three-way comparison over @p sizes on one trace.
 * A single RunStart next-use index at @p line_bytes is built once.
 * With the default Kernel engine the trace is streamed once for all
 * sizes and models; PerLeg replays the object models per (size, model)
 * leg. Both produce bit-identical results at any thread count.
 */
std::vector<SizeSweepPoint> sweepSizes(
    const Trace &trace, const std::vector<std::uint64_t> &sizes,
    std::uint32_t line_bytes, const DynamicExclusionConfig &config = {},
    ReplayEngine engine = ReplayEngine::Kernel);

/**
 * A fault-tolerant size sweep's result: every requested size has a
 * point (with its sizeBytes filled in), but points[s] carries real
 * miss rates only when ok[s]; the statuses of failed legs are listed
 * in failures (ordered by size).
 */
struct SizeSweepOutcome
{
    std::vector<SizeSweepPoint> points;
    std::vector<std::uint8_t> ok;
    std::vector<FailedLeg> failures;

    bool allOk() const { return failures.empty(); }
};

/**
 * The fault-tolerant form of sweepSizes: a failing leg (including one
 * injected via the sweep fault hook) is recorded instead of
 * propagating, and every other leg completes bit-identical to an
 * unfaulted run at any worker count.
 */
SizeSweepOutcome sweepSizesChecked(
    const Trace &trace, const std::vector<std::uint64_t> &sizes,
    std::uint32_t line_bytes, const DynamicExclusionConfig &config = {},
    ReplayEngine engine = ReplayEngine::Kernel);

/**
 * sweepSizesChecked over artifacts the caller already holds: @p index
 * must be a RunStart index over @p trace and @p view its packing, both
 * at @p line_bytes granularity. The serving subsystem passes the
 * TraceStore's cached pair so a warm request neither rebuilds the
 * index nor repacks the trace; results are bit-identical to the
 * overload that builds both.
 */
SizeSweepOutcome sweepSizesChecked(
    const Trace &trace, const NextUseIndex &index,
    const PackedTraceView &view,
    const std::vector<std::uint64_t> &sizes, std::uint32_t line_bytes,
    const DynamicExclusionConfig &config = {},
    ReplayEngine engine = ReplayEngine::Kernel);

/**
 * Suite-averaged size sweep: arithmetic mean of the per-benchmark miss
 * percentages at each size (the paper's "average ... across the SPEC
 * benchmarks").
 *
 * @param benchmark_names suite member names.
 * @param refs per-benchmark reference budget.
 * @param data_refs use the data stream instead of instruction fetches.
 * @param mixed_refs use the mixed I+D stream.
 * @param engine kernel (one trace pass per benchmark) or per-leg.
 *
 * The first failure is thrown as a StatusError: a thin wrapper over
 * sweepSuiteAverageChecked.
 */
std::vector<SizeSweepPoint> sweepSuiteAverage(
    const std::vector<std::string> &benchmark_names, Count refs,
    const std::vector<std::uint64_t> &sizes, std::uint32_t line_bytes,
    const DynamicExclusionConfig &config = {}, bool data_refs = false,
    bool mixed_refs = false,
    ReplayEngine engine = ReplayEngine::Kernel);

/**
 * A fault-tolerant suite average: points[s] averages the benchmarks
 * whose leg at sizes[s] succeeded (contributors[s] of them, in input
 * order — the same accumulation order as the unfaulted reduction);
 * ok[s] is false when no benchmark contributed. Per-leg failures are
 * listed in failures.
 */
struct SuiteAverageOutcome
{
    std::vector<SizeSweepPoint> points;
    std::vector<std::uint8_t> ok;
    std::vector<Count> contributors;
    std::vector<FailedLeg> failures;

    bool allOk() const { return failures.empty(); }
};

/** The fault-tolerant form of sweepSuiteAverage. */
SuiteAverageOutcome sweepSuiteAverageChecked(
    const std::vector<std::string> &benchmark_names, Count refs,
    const std::vector<std::uint64_t> &sizes, std::uint32_t line_bytes,
    const DynamicExclusionConfig &config = {}, bool data_refs = false,
    bool mixed_refs = false,
    ReplayEngine engine = ReplayEngine::Kernel);

/** One (line size, triad) point at fixed capacity. */
struct LineSweepPoint
{
    std::uint32_t lineBytes = 0;
    double dmMissPct = 0.0;
    double deMissPct = 0.0;
    double optMissPct = 0.0;

    double deImprovementPct() const;
    double optImprovementPct() const;
};

/** Suite-averaged line-size sweep at fixed @p size_bytes. */
std::vector<LineSweepPoint> sweepSuiteLineSizes(
    const std::vector<std::string> &benchmark_names, Count refs,
    std::uint64_t size_bytes, const std::vector<std::uint32_t> &lines,
    const DynamicExclusionConfig &config = {},
    ReplayEngine engine = ReplayEngine::Kernel);

} // namespace dynex

#endif // DYNEX_SIM_SWEEP_H

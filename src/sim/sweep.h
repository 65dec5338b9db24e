/**
 * @file
 * Parameter sweeps shared by the figure benches, the CLI, campaigns
 * and the server: cache-size sweeps of one trace, and suite-averaged
 * size and line-size sweeps built from them. Every sweep ends in a
 * SizeSweepOutcome from sweepSizes.
 *
 * Determinism contract: every sweep writes each simulation's result
 * into a slot pre-sized from the input axes, and every reduction over
 * those slots happens serially in input order after the fan-out
 * completes. Thread count (DYNEX_THREADS, --threads, or the hardware
 * default) therefore affects wall-clock time only, never a single
 * output bit.
 */

#ifndef DYNEX_SIM_SWEEP_H
#define DYNEX_SIM_SWEEP_H

#include <string>
#include <vector>

#include "cache/dynamic_exclusion.h"
#include "sim/kernel.h"
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

/**
 * The DE configuration a size sweep at @p line_bytes runs under:
 * @p sticky_max from the request, and the last-line register iff the
 * line is wider than 4 B. The CLI, a campaign and the server all take
 * it from here, so their tables stay byte-identical.
 */
DynamicExclusionConfig sweepConfig(std::uint32_t line_bytes,
                                   std::uint8_t sticky_max);

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
 * A size sweep's result: every requested size has a point (with its
 * sizeBytes filled in), but points[s] carries real miss rates only
 * when ok[s]; the statuses of failed legs are listed in failures
 * (ordered by size).
 */
struct SizeSweepOutcome
{
    std::vector<SizeSweepPoint> points;
    std::vector<std::uint8_t> ok;
    std::vector<FailedLeg> failures;

    bool allOk() const { return failures.empty(); }
};

/**
 * Check the orderings every size sweep of one trace must satisfy, on
 * its OK legs:
 *  - optimal misses <= DE misses and optimal <= DM misses, per leg;
 *  - DM and optimal misses never rise from one OK leg to the next
 *    larger one: at a power-of-two size each set splits in two, so DM
 *    keeps every hit, and per-set MIN on a subsequence never does
 *    worse.
 * A leg that breaks one is marked failed (ok[s] = 0) with an Internal
 * FailedLeg{label, sizes[s], "triad"} naming the ordering, inserted in
 * size order. DE is not guaranteed monotone, so a DE step up is not a
 * failure.
 */
void checkSweepOrderings(const std::vector<std::uint64_t> &sizes,
                         TriadBatchOutcome &outcome,
                         const std::string &label);

/** Which reference stream of a suite benchmark to replay. */
enum class StreamKind
{
    Instructions,
    Data,
    Mixed,
};

/** Generate the requested stream of @p name via Workloads, charged as
 * a trace load (TraceLoadNs, TraceLoadRefs and a "load" span). */
Trace loadStream(const std::string &name, Count refs, StreamKind stream);

/**
 * Run the three-way comparison over @p sizes on @p artifact's source,
 * at the artifact's line size, labelled with its name(). With the
 * default Kernel engine the artifact is streamed once for all sizes
 * and models; PerLeg replays the object models per (size, model) leg
 * over the artifact's trace(), and fails every leg with
 * InvalidArgument when it has none (packed from a file or detached).
 * Both produce bit-identical results at any thread count. A failing leg (including
 * one injected via the sweep fault hook, or one that breaks
 * checkSweepOrderings) is recorded instead of propagating, and every
 * other leg completes bit-identical to an unfaulted run. The serving subsystem passes the TraceStore's cached
 * artifact to the kernel, so a warm request neither repacks nor
 * reindexes; the CLI passes one packed straight from a trace file.
 */
SizeSweepOutcome sweepSizes(
    const ReplayArtifact &artifact,
    const std::vector<std::uint64_t> &sizes,
    const DynamicExclusionConfig &config = {},
    ReplayEngine engine = ReplayEngine::Kernel);

/**
 * sweepSizes over a replay artifact built here at @p line_bytes, under
 * one "sweep" span. A failed build fails every leg.
 */
SizeSweepOutcome sweepSizes(
    const Trace &trace, const std::vector<std::uint64_t> &sizes,
    std::uint32_t line_bytes, const DynamicExclusionConfig &config = {},
    ReplayEngine engine = ReplayEngine::Kernel);

/**
 * A suite average: points[s] averages the benchmarks whose leg at
 * sizes[s] succeeded (contributors[s] of them, in input order -- the
 * same accumulation order as an unfaulted reduction); ok[s] is false
 * when no benchmark contributed. Per-leg failures are listed in
 * failures.
 */
struct SuiteAverageOutcome
{
    std::vector<SizeSweepPoint> points;
    std::vector<std::uint8_t> ok;
    std::vector<Count> contributors;
    std::vector<FailedLeg> failures;

    bool allOk() const { return failures.empty(); }
};

/**
 * Suite-averaged size sweep: arithmetic mean of the per-benchmark miss
 * percentages at each size (the paper's "average ... across the SPEC
 * benchmarks"). Benchmarks fan out across the pool, one job each: the
 * setup probe hook(bench, 0) (runner.h), loadStream, the benchmark's
 * replay artifact, and sweepSizes over it, so every leg passes
 * checkSweepOrderings and peak memory scales with the worker count,
 * not the suite size. The stream is renamed to its benchmark before
 * it is packed, so failures, metrics slots, spans and fault-hook calls
 * carry the plain benchmark name. A job that throws outside
 * sweepSizes (the probe, the load, the artifact build) voids only its
 * own benchmark, as one FailedLeg with sizeBytes 0; every unaffected
 * leg completes bit-identical to an unfaulted run at any worker count.
 * failures lists each benchmark's in benchmark order.
 *
 * @param benchmark_names suite member names.
 * @param refs per-benchmark reference budget.
 * @param stream which reference stream of each benchmark to replay.
 * @param engine kernel (one trace pass per benchmark) or per-leg.
 */
SuiteAverageOutcome sweepSuiteAverage(
    const std::vector<std::string> &benchmark_names, Count refs,
    const std::vector<std::uint64_t> &sizes, std::uint32_t line_bytes,
    const DynamicExclusionConfig &config = {},
    StreamKind stream = StreamKind::Instructions,
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

/**
 * Suite-averaged line-size sweep of the instruction streams at fixed
 * @p size_bytes: the jobs of sweepSuiteAverage, packing one artifact
 * per line size in turn and sweeping the one size over it. The first
 * failure, in benchmark order, is thrown as a StatusError.
 */
std::vector<LineSweepPoint> sweepSuiteLineSizes(
    const std::vector<std::string> &benchmark_names, Count refs,
    std::uint64_t size_bytes, const std::vector<std::uint32_t> &lines,
    const DynamicExclusionConfig &config = {},
    ReplayEngine engine = ReplayEngine::Kernel);

} // namespace dynex

#endif // DYNEX_SIM_SWEEP_H

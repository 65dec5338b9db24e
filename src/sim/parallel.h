/**
 * @file
 * The parallel simulation engine: fans independent (benchmark x
 * cache-size x model) simulations out across the shared thread pool
 * while guaranteeing results bit-identical to a serial run.
 *
 * Determinism contract: every helper here writes each simulation's
 * result into a slot pre-sized from the input axes, and every
 * reduction over those slots happens serially in input order after the
 * fan-out completes. Thread count (DYNEX_THREADS, --threads, or the
 * hardware default) therefore affects wall-clock time only, never a
 * single output bit.
 */

#ifndef DYNEX_SIM_PARALLEL_H
#define DYNEX_SIM_PARALLEL_H

#include <functional>
#include <string>
#include <vector>

#include "cache/dynamic_exclusion.h"
#include "sim/kernel.h"
#include "sim/runner.h"
#include "trace/trace.h"
#include "util/status.h"

namespace dynex
{

/**
 * One failed leg of a fault-tolerant sweep. sizeBytes == 0 means the
 * whole benchmark failed (trace load / index build / setup), so every
 * size of that benchmark is invalid.
 */
struct FailedLeg
{
    std::string bench;
    std::uint64_t sizeBytes = 0;
    /** Which model(s) the failure covers; "triad" = all three. */
    std::string model = "triad";
    Status status;

    std::string toString() const;
};

/**
 * A fault-tolerant suite sweep's result: the triad grid plus a
 * validity mask and the recorded failures. grid[b][s] is meaningful
 * iff ok[b][s]; failures are ordered benchmark-major then by size, so
 * the outcome is deterministic at any worker count.
 */
struct SuiteSweepOutcome
{
    std::vector<std::vector<TriadResult>> grid;
    std::vector<std::vector<std::uint8_t>> ok;
    std::vector<FailedLeg> failures;

    bool allOk() const { return failures.empty(); }
};

/** Which reference stream of a suite benchmark to replay. */
enum class StreamKind
{
    Instructions,
    Data,
    Mixed,
};

/** Load the requested stream of @p name via Workloads. */
std::shared_ptr<const Trace> loadStream(const std::string &name,
                                        Count refs, StreamKind stream);

/**
 * Run body(i) for i in [0, n) on the global pool and block until all
 * complete. Thin wrapper over ThreadPool::global().parallelFor so sim
 * code does not depend on the pool type directly; may be nested.
 */
void simParallelFor(std::size_t n,
                    const std::function<void(std::size_t)> &body);

/**
 * Replay every size leg of @p trace with @p engine: the one place a
 * sweep's engine choice is made. The kernel streams @p view and
 * @p index once for all legs; PerLeg runs one observed runTriad per
 * size across the pool. Either engine calls the sweep fault hook as
 * hook(label, size) per leg and records a leg that throws as a
 * TriadLegFailure without perturbing the others.
 *
 * @param view @p trace packed at @p line_bytes.
 * @param index a RunStart next-use index over @p trace at @p line_bytes.
 * @param label names the legs' metrics slots, spans and fault-hook
 *        calls.
 */
TriadBatchOutcome replayTriads(ReplayEngine engine, const Trace &trace,
                               const PackedTraceView &view,
                               const NextUseIndex &index,
                               const std::vector<std::uint64_t> &sizes,
                               std::uint32_t line_bytes,
                               const DynamicExclusionConfig &config,
                               const std::string &label);

/**
 * The full triad grid of a suite sweep: result[b][s] is the triad of
 * benchmark_names[b] at sizes[s]; the first failure is thrown as a
 * StatusError. A thin wrapper over sweepSuiteTriadsChecked.
 */
std::vector<std::vector<TriadResult>> sweepSuiteTriads(
    const std::vector<std::string> &benchmark_names, Count refs,
    const std::vector<std::uint64_t> &sizes, std::uint32_t line_bytes,
    const DynamicExclusionConfig &config, StreamKind stream,
    ReplayEngine engine = ReplayEngine::Kernel);

/**
 * The full triad grid of a suite sweep, fault-tolerant. One trace, its
 * packed view and its RunStart next-use index are built per benchmark
 * and shared by replayTriads across its sizes; benchmarks fan out across the pool,
 * so peak memory scales with the worker count, not the suite size.
 * Every failure -- a throwing trace load, a failing leg, an injected
 * fault (the hook also sees (bench, 0) before the load) -- is captured
 * as a FailedLeg, and every unaffected leg completes bit-identical to
 * an unfaulted run at any worker count.
 */
SuiteSweepOutcome sweepSuiteTriadsChecked(
    const std::vector<std::string> &benchmark_names, Count refs,
    const std::vector<std::uint64_t> &sizes, std::uint32_t line_bytes,
    const DynamicExclusionConfig &config, StreamKind stream,
    ReplayEngine engine = ReplayEngine::Kernel);

/**
 * The line-size counterpart: result[b][l] is the triad of
 * benchmark_names[b] at lines[l] with fixed @p size_bytes. A fresh
 * view and RunStart index are built per (benchmark, line size), since
 * block identity depends on the granularity; a benchmark's line sizes
 * run serially, and benchmarks fan out across the pool. The first failure is thrown as
 * a StatusError.
 */
std::vector<std::vector<TriadResult>> sweepSuiteLineTriads(
    const std::vector<std::string> &benchmark_names, Count refs,
    std::uint64_t size_bytes, const std::vector<std::uint32_t> &lines,
    const DynamicExclusionConfig &config,
    ReplayEngine engine = ReplayEngine::Kernel);

} // namespace dynex

#endif // DYNEX_SIM_PARALLEL_H

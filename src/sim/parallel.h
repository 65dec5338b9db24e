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

/** Generate the requested stream of @p name via Workloads. */
Trace loadStream(const std::string &name, Count refs, StreamKind stream);

/**
 * Replay every size leg of @p artifact's source with @p engine: the
 * one place a sweep's engine choice is made. The kernel streams the
 * artifact once for all legs; PerLeg runs one observed runTriad per
 * size across the pool over the artifact's trace() and index. Either
 * engine calls the sweep fault hook as hook(label, size) per leg and
 * records a leg that throws as a FailedLeg without perturbing the
 * others. PerLeg on an artifact packed from a file (no trace()) fails
 * every leg with InvalidArgument.
 *
 * @param artifact the replay artifact; its line size is the legs' line
 *        size.
 * @param label names the legs' failures, metrics slots, spans and
 *        fault-hook calls.
 */
TriadBatchOutcome replayTriads(ReplayEngine engine,
                               const ReplayArtifact &artifact,
                               const std::vector<std::uint64_t> &sizes,
                               const DynamicExclusionConfig &config,
                               const std::string &label);

/**
 * The full triad grid of a suite sweep. One trace and its replay
 * artifact are built per benchmark and shared by replayTriads across
 * its sizes; benchmarks fan out across the pool, so peak memory scales
 * with the worker count, not the suite size. Every failure -- a
 * throwing trace load, a failing leg, an injected fault (the hook also
 * sees (bench, 0) before the load) -- is captured as a FailedLeg, and
 * every unaffected leg completes bit-identical to an unfaulted run at
 * any worker count.
 */
SuiteSweepOutcome sweepSuiteTriads(
    const std::vector<std::string> &benchmark_names, Count refs,
    const std::vector<std::uint64_t> &sizes, std::uint32_t line_bytes,
    const DynamicExclusionConfig &config, StreamKind stream,
    ReplayEngine engine = ReplayEngine::Kernel);

/**
 * The line-size counterpart: result[b][l] is the triad of
 * benchmark_names[b] at lines[l] with fixed @p size_bytes. A fresh
 * replay artifact is built per (benchmark, line size), since block
 * identity depends on the granularity; a benchmark's line sizes run
 * serially, and benchmarks fan out across the pool. The first failure
 * is thrown as a StatusError (throwIfFailed).
 */
std::vector<std::vector<TriadResult>> sweepSuiteLineTriads(
    const std::vector<std::string> &benchmark_names, Count refs,
    std::uint64_t size_bytes, const std::vector<std::uint32_t> &lines,
    const DynamicExclusionConfig &config,
    ReplayEngine engine = ReplayEngine::Kernel);

} // namespace dynex

#endif // DYNEX_SIM_PARALLEL_H

/**
 * @file
 * The SoA replay kernel: the sweep engine. One pass over a packed
 * trace replays every (size, model) leg of a sweep.
 *
 * A per-leg sweep re-streams the trace once per (size, model) leg and
 * walks a per-model object for every reference. The kernel instead
 * streams a PackedTraceView (12 bytes/ref of precomputed block numbers
 * and dense block ids) once, in L1/L2-sized chunks, and strips the
 * per-reference machinery:
 *
 *  - model state lives in struct-of-arrays lanes (flat tag, next-use,
 *    and sticky arrays indexed by set; one hit-last byte per distinct
 *    block, indexed by the view's dense ids) with sentinel tags
 *    instead of validity sidecars;
 *  - McFarling's Figure 1 arc comes from fig1Arc (exclusion_fsm.h),
 *    the same function exclusionStep uses, as a branchless select
 *    with per-arc event tallies;
 *  - statistics are derived from the event tallies once per pass
 *    instead of six counter adds per reference per model;
 *  - the run-boundary lane shared by the last-line models is
 *    precomputed per chunk, with an AVX2 path behind runtime dispatch
 *    (scalar fallback bit-identical).
 *
 * Results are bit-identical to the object models (runTriad, the
 * PerLeg engine): same CacheStats, same FSM event counts, at any
 * worker count.
 */

#ifndef DYNEX_SIM_KERNEL_H
#define DYNEX_SIM_KERNEL_H

#include <optional>
#include <string>
#include <vector>

#include "cache/dynamic_exclusion.h"
#include "sim/runner.h"
#include "trace/next_use.h"
#include "trace/packed_view.h"
#include "util/status.h"

namespace dynex
{

/**
 * Which replay strategy a sweep uses. The values are the DXP1 sweep
 * request's engine byte; byte 0, the retired batched engine, is
 * served by the kernel.
 */
enum class ReplayEngine : std::uint8_t
{
    /** One trace pass per leg through the object models (runTriad);
     * kept as the reference for equivalence and determinism checks. */
    PerLeg = 1,
    /** The SoA kernel: one pass for every leg. The default. */
    Kernel = 2,
};

/** @return the engine's name: "per-leg" or "kernel". */
const char *replayEngineName(ReplayEngine engine);

/**
 * The engine named @p name (case-insensitive): "kernel", "per-leg",
 * or "batched", the retired batched engine's name, kept as an alias
 * of the kernel so existing command lines and campaign specs still
 * run. nullopt for anything else.
 */
std::optional<ReplayEngine> parseReplayEngine(const std::string &name);

namespace detail
{

/** References per kernel chunk: 4096 block numbers = 32KB (plus 16KB
 * of dense ids), sized to stay resident in L1/L2 while every leg
 * replays it. */
inline constexpr std::size_t kBatchChunkRefs = 4096;

} // namespace detail

/** Which instruction set the kernel's dispatched helpers use. */
enum class KernelIsa
{
    Scalar, ///< portable C++ (compiled at the build's baseline ISA)
    Avx2,   ///< explicit 256-bit lanes for the chunk precomputes
};

/** @return a short lowercase name for @p isa ("scalar", "avx2"). */
const char *kernelIsaName(KernelIsa isa);

/**
 * The ISA the kernel will use for the next pass: Avx2 when the CPU
 * supports it and setKernelForceScalar(true) is not in effect, Scalar
 * otherwise.
 */
KernelIsa kernelDispatchIsa();

/** Force the scalar path regardless of CPU support (test hook; the
 * dispatch unit test uses it to compare both paths on one machine). */
void setKernelForceScalar(bool force);

/** @return true when the scalar override is active. */
bool kernelForceScalar();

/** One failed size leg of a kernel pass. */
struct TriadLegFailure
{
    std::size_t sizeIndex = 0;
    Status status;
};

/** The result of replaying every size leg of one trace, by either
 * engine: per-size triads plus a validity mask and the statuses of any
 * legs that failed. */
struct TriadBatchOutcome
{
    /** triads[s] is meaningful iff ok[s]. */
    std::vector<TriadResult> triads;
    std::vector<std::uint8_t> ok;
    /** Sorted by sizeIndex. */
    std::vector<TriadLegFailure> failures;

    bool allOk() const { return failures.empty(); }
};

/**
 * Replay all |sizes| x {conventional, dynamic-exclusion, optimal}
 * legs of @p view in one pass through the SoA lanes. triads[s] is
 * bit-identical to runTriad(trace, index, sizes[s], line_bytes,
 * de_config) for the trace @p view packs.
 *
 * A leg whose setup throws (a bad geometry, or an injected fault via
 * the sweep fault hook) is recorded as a TriadLegFailure and skipped;
 * the surviving legs never interact with it, so they complete with
 * results bit-identical to an unfaulted run.
 *
 * @param view the trace packed at @p line_bytes granularity; callers
 *        holding a cached view (the serving TraceStore) pass it here
 *        and skip repacking.
 * @param index a RunStart next-use oracle for the same trace at
 *        @p line_bytes granularity, shared by every optimal leg.
 * @param label the benchmark label for metrics slots, tracer spans
 *        and the sweep fault hook.
 */
TriadBatchOutcome replayTriadKernel(
    const PackedTraceView &view, const NextUseIndex &index,
    const std::vector<std::uint64_t> &sizes, std::uint32_t line_bytes,
    const DynamicExclusionConfig &de_config, const std::string &label);

/** The triads of a replay that must not fail: the first failed leg's
 * status is thrown as a StatusError. */
std::vector<TriadResult> triadsOrThrow(TriadBatchOutcome outcome);

} // namespace dynex

#endif // DYNEX_SIM_KERNEL_H

/**
 * @file
 * The SoA replay kernel: the sweep engine. One pass over a packed
 * trace replays every (size, model) leg of a sweep.
 *
 * A per-leg sweep re-streams the trace once per (size, model) leg and
 * walks a per-model object for every reference. The kernel instead
 * streams a 12 bytes/ref artifact once, in L1/L2-sized chunks: the
 * PackedTraceView's 32-bit set words and dense block ids plus the
 * NextUseIndex's 32-bit RunStart ticks. It strips the per-reference
 * machinery:
 *
 *  - model state lives in 32-bit struct-of-arrays lanes (flat tag,
 *    next-use, and sticky arrays indexed by set; one hit-last byte
 *    per distinct block). Tags are dense ids, so a tag compare is an
 *    id compare, and the empty-line sentinel ~0u is never an id;
 *  - McFarling's Figure 1 arc comes from fig1Arc (exclusion_fsm.h),
 *    the same function exclusionStep uses, as a branchless select
 *    with per-arc event tallies;
 *  - statistics are derived from the event tallies once per pass
 *    instead of six counter adds per reference per model;
 *  - the run-boundary lane shared by the last-line models is
 *    precomputed per chunk from the ids, with an AVX2 path behind
 *    runtime dispatch (scalar fallback bit-identical);
 *  - every completed leg is checked against its conservation
 *    identities (checkLegIdentities) before it is returned.
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

/** References per kernel chunk: 4096 x 12 bytes (set word, dense id,
 * next-use tick) = 48KB, plus 4KB of run-boundary flags, sized to stay
 * resident in L1/L2 while every leg replays it. */
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
 * A leg whose setup throws (a bad geometry, a set count beyond 32
 * bits, or an injected fault via the sweep fault hook) is recorded as
 * a TriadLegFailure and skipped; the surviving legs never interact
 * with it, so they complete with results bit-identical to an unfaulted
 * run. A completed leg whose counts break checkLegIdentities is
 * recorded as a failure too, never returned as a table.
 *
 * @param view the trace packed at @p line_bytes granularity; callers
 *        holding a cached view (the serving TraceStore) pass it here
 *        and skip repacking.
 * @param index a RunStart next-use oracle for the same trace at
 *        @p line_bytes granularity (normally built from @p view),
 *        shared by every optimal leg.
 * @param label the benchmark label for metrics slots, tracer spans
 *        and the sweep fault hook.
 */
TriadBatchOutcome replayTriadKernel(
    const PackedTraceView &view, const NextUseIndex &index,
    const std::vector<std::uint64_t> &sizes, std::uint32_t line_bytes,
    const DynamicExclusionConfig &de_config, const std::string &label);

/**
 * Check one leg's conservation identities:
 *  - hits + misses = accesses, per model;
 *  - fills + bypasses = misses, per model;
 *  - evictions = fills - cold misses, per model;
 *  - the five Figure-1 arc counts sum to accesses - @p
 *    de_last_line_hits (only when the build counts arcs);
 *  - cold misses are equal across DM, DE and optimal (a set's first
 *    reference is always a run start, so every model sees it).
 * Each sum is checked with no part above its total, so a counter that
 * wrapped below zero cannot balance it modulo 2^64. The kernel runs
 * this on every leg of every pass; the cost is O(1) per leg.
 *
 * @param de_last_line_hits DE's within-run references served by the
 *        last-line register (not seen by the FSM).
 * @return Ok, or an Internal status naming the first broken identity.
 */
Status checkLegIdentities(const TriadResult &triad,
                          Count de_last_line_hits);

/** The triads of a replay that must not fail: the first failed leg's
 * status is thrown as a StatusError. */
std::vector<TriadResult> triadsOrThrow(TriadBatchOutcome outcome);

} // namespace dynex

#endif // DYNEX_SIM_KERNEL_H

/**
 * @file
 * The SoA replay kernel: the sweep engine. A sweep's size legs are
 * dealt to leg groups, one per pool worker at most, and one pass per
 * leg group over the packed trace replays all three models of each of
 * its legs; the groups run in parallel on the thread pool.
 *
 * A per-leg sweep re-streams the trace once per (size, model) leg and
 * walks a per-model object for every reference. The kernel instead
 * streams an 8 bytes/ref artifact once, in L1/L2-sized chunks: the
 * PackedTraceView's 32-bit dense block ids plus the NextUseIndex's
 * 32-bit RunStart ticks. It strips the per-reference machinery:
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
 *  - references whose outcome is closed form never enter a lane. With
 *    the last-line register a within-run reference hits in all three
 *    models, and at a given size a block alone in its set
 *    (SetSharing) is one cold fill and then hits. Each chunk's list of
 *    the remaining references (ids, set words gathered from the
 *    view's one set word per block, next-use ticks) is built once and
 *    refined in place leg by leg in ascending set count, since sets
 *    only split as the size doubles; the skipped references are added
 *    to each leg's tallies in O(1) from the artifact's SetSharing
 *    histograms. List building and refinement have an AVX2 path
 *    behind runtime dispatch (scalar fallback bit-identical);
 *  - every completed leg is checked against its conservation
 *    identities (checkLegIdentities) before it is returned.
 *
 * Results are bit-identical to the object models (runTriad, the
 * PerLeg engine): same CacheStats, same FSM event counts, at any
 * worker count.
 */

#ifndef DYNEX_SIM_KERNEL_H
#define DYNEX_SIM_KERNEL_H

#include <memory>
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

/** References per kernel chunk: its lane list is 4096 x 12 bytes
 * (dense id, set word and next-use tick) = 48KB plus 8KB of shared bit
 * counts and within-run flags, sized to stay resident in L1/L2 while
 * every leg of its leg group replays and refines it. Each group has
 * its own list. */
inline constexpr std::size_t kBatchChunkRefs = 4096;

} // namespace detail

/** Which instruction set the kernel's dispatched helpers use. */
enum class KernelIsa
{
    Scalar, ///< portable C++ (compiled at the build's baseline ISA)
    Avx2,   ///< explicit 256-bit lanes for the chunk lane lists
};

/**
 * The ISA the kernel will use for the next pass: Avx2 when the CPU
 * supports it and setKernelForceScalar(true) is not in effect, Scalar
 * otherwise.
 */
KernelIsa kernelDispatchIsa();

/** Force the scalar path regardless of CPU support (test hook; the
 * dispatch unit test uses it to compare both paths on one machine). */
void setKernelForceScalar(bool force);

/**
 * One failed leg of a fault-tolerant sweep. sizeBytes == 0 means the
 * whole benchmark failed (trace load / artifact build / setup), so
 * every size of that benchmark is invalid.
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

/** For callers that must not fail (the figure benches, the line
 * sweeps): throw the first of @p failures as a StatusError. */
void throwIfFailed(const std::vector<FailedLeg> &failures);

/** Whether an artifact packed from a Trace points back at it. */
enum class TraceLink : std::uint8_t
{
    Keep, ///< trace() is the source; the caller keeps it alive
    Drop, ///< trace() is nullptr; the artifact may outlive the source
};

/**
 * A trace's replay artifact at one line size: its packed view, the
 * RunStart next-use index built from that view and the view's
 * SetSharing, 8 bytes per reference plus 5 per distinct block and
 * about 800 for the sharing histograms. Only buildReplayArtifact makes
 * one, so the view, the index and the sharing table always share the
 * source, the length and the granularity, and the artifact names its
 * source.
 */
class ReplayArtifact
{
  public:
    const PackedTraceView &view() const { return packed; }
    const NextUseIndex &index() const { return nextUse; }
    std::uint32_t lineBytes() const { return packed.blockBytes(); }
    /** The source trace's name: the label its sweeps report under. */
    const std::string &name() const { return sourceName; }
    /** The source's reference count. */
    std::size_t refs() const { return packed.size(); }
    /**
     * The Trace the artifact was built from, or nullptr when it was
     * packed straight from a trace file or detached from its Trace
     * (TraceLink::Drop). Non-owning: a linked artifact is valid only
     * while its Trace lives, so only callers that keep the Trace for
     * the artifact's whole life link it (sweepSizes(Trace) for its
     * call, the suite sweeps for their benchmark's job). A TraceStore
     * keeps artifacts without their Traces and builds them detached.
     * Only the per-leg engine reads it.
     */
    const Trace *trace() const { return source; }
    /** Which blocks are alone in their set at each set count: the
     * kernel replays their references in closed form. */
    const SetSharing &sharing() const { return setSharing; }
    /** Resident bytes: the view's ids and per-block set words, the
     * index's ticks, and the set-sharing table. */
    std::uint64_t
    bytes() const
    {
        return packed.bytes() + nextUse.bytes() + setSharing.bytes();
    }

  private:
    friend std::shared_ptr<const ReplayArtifact>
    buildReplayArtifact(const Trace &, std::uint32_t, const std::string &,
                        TraceLink);
    friend Result<std::shared_ptr<const ReplayArtifact>>
    buildReplayArtifact(const std::string &, std::uint32_t);

    /** The artifact of the packed @p view: its RunStart index and its
     * SetSharing only read the view, so they are built as two
     * ThreadPool::global() jobs (with one worker, inline and in that
     * order). */
    static std::shared_ptr<const ReplayArtifact>
    finish(std::string name, const Trace *trace, PackedTraceView view);

    ReplayArtifact(std::string name, const Trace *trace,
                   PackedTraceView view, SetSharing sharing,
                   NextUseIndex index);

    std::string sourceName;
    const Trace *source;
    PackedTraceView packed;
    // Built beside the index (after it, with one worker), so the
    // build's peak holds both: that adds at most SetSharing's scratch,
    // 16 B per distinct block.
    SetSharing setSharing;
    NextUseIndex nextUse;
};

/**
 * Pack @p trace at @p line_bytes and build its RunStart next-use
 * index and SetSharing. Charges one IndexBuilds and the wall time of
 * all three to IndexBuildNs and records one "index" span named after
 * @p label, whichever path (CLI, suite, served) asks. Throws what the
 * view or the index throws.
 *
 * @param link Keep makes trace() return &@p trace; Drop leaves it
 *        nullptr, for an artifact that outlives @p trace.
 */
std::shared_ptr<const ReplayArtifact>
buildReplayArtifact(const Trace &trace, std::uint32_t line_bytes,
                    const std::string &label,
                    TraceLink link = TraceLink::Keep);

/**
 * Pack the DXT1/DXT2/DXT3 trace file at @p path at @p line_bytes block
 * by block as its TraceDecoder (trace/trace_io.h) yields it, and build
 * its RunStart index and SetSharing: the Trace is never built, so the
 * artifact's trace() is nullptr. The artifact is named after the
 * file's trace, and so is its span. Charges like the Trace overload
 * (IndexBuilds, the "index" span, and the build to IndexBuildNs) and
 * charges
 * the decode, the folded payload CRC included, timed per block and
 * only under a metrics collector or tracer, as trace acquisition:
 * TraceLoadNs and TraceLoadRefs, plus a "decode" span per block.
 *
 * @return the artifact, or the decoder's Status: exactly what
 *         readTraceFile(@p path) reports for the same file. A trace
 *         of 2^32 references or more is a ResourceLimit, raised at
 *         the block that reaches 2^32, so a forged count on a short
 *         file still reports the decoder's own error first.
 */
Result<std::shared_ptr<const ReplayArtifact>>
buildReplayArtifact(const std::string &path, std::uint32_t line_bytes);

/** The result of replaying every size leg of one trace, by either
 * engine: per-size triads plus a validity mask and the statuses of any
 * legs that failed. */
struct TriadBatchOutcome
{
    /** triads[s] is meaningful iff ok[s]. */
    std::vector<TriadResult> triads;
    std::vector<std::uint8_t> ok;
    /** One per failed leg, ordered by size. */
    std::vector<FailedLeg> failures;

    bool allOk() const { return failures.empty(); }
};

/**
 * Replay all |sizes| x {conventional, dynamic-exclusion, optimal}
 * legs of @p artifact through the SoA lanes, at the artifact's line
 * size: the legs, in ascending set count, are dealt round-robin to
 * min(ThreadPool::global().workers(), legs) leg groups, and each group
 * is one pass over the trace, run as one pool job that maps its legs'
 * lanes and unmaps them when it ends. triads[s] is bit-identical to
 * runTriad(trace, artifact.index(), sizes[s], artifact.lineBytes(),
 * de_config) for the trace the artifact was built from, whether it was
 * packed from that Trace or from its file, at any worker count.
 *
 * A leg whose setup throws (a bad geometry, a set count beyond 32
 * bits, or an injected fault via the sweep fault hook, all checked on
 * the calling thread in size order, or lanes its group's job cannot
 * map) is recorded as a FailedLeg{label, sizes[s], "triad", status}
 * and skipped; the surviving legs never interact with it, so they
 * complete with results bit-identical to an unfaulted run. A completed leg whose counts
 * break checkLegIdentities is recorded as a failure too, never
 * returned as a table.
 *
 * @param label the benchmark label for failures, metrics slots,
 *        tracer spans and the sweep fault hook.
 */
TriadBatchOutcome replayTriadKernel(
    const ReplayArtifact &artifact,
    const std::vector<std::uint64_t> &sizes,
    const DynamicExclusionConfig &de_config, const std::string &label);

/**
 * Check one leg's conservation identities:
 *  - hits + misses = accesses, per model;
 *  - fills + bypasses = misses, per model;
 *  - evictions = fills - cold misses, per model;
 *  - the five Figure-1 arc counts sum to accesses - @p
 *    de_last_line_hits;
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

} // namespace dynex

#endif // DYNEX_SIM_KERNEL_H

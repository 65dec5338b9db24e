#include "sim/kernel.h"

#include <algorithm>
#include <atomic>
#include <memory>
#include <utility>

#if defined(__x86_64__) && defined(__GNUC__)
#define DYNEX_KERNEL_HAVE_AVX2 1
#include <immintrin.h>
#else
#define DYNEX_KERNEL_HAVE_AVX2 0
#endif

#include "obs/metrics.h"
#include "obs/progress.h"
#include "obs/trace_events.h"
#include "trace/trace_io.h"
#include "util/logging.h"
#include "util/string_utils.h"

// The chunk loop runs hot enough that inlining it into the (large)
// pass driver costs real speed: the merged frame spills its loop
// registers. Pinning each instantiation out of line gives it a clean
// register file for the price of one call per 4096 references.
#if defined(__GNUC__)
#define DYNEX_KERNEL_NOINLINE __attribute__((noinline))
#else
#define DYNEX_KERNEL_NOINLINE
#endif

namespace dynex
{

namespace
{

std::atomic<bool> gForceScalar{false};

bool
cpuHasAvx2()
{
#if DYNEX_KERNEL_HAVE_AVX2
    static const bool has = __builtin_cpu_supports("avx2") != 0;
    return has;
#else
    return false;
#endif
}

/**
 * The two lanes a chunk precomputes from its dense ids, once for every
 * leg:
 *  - the run-boundary lane: same[i] = 1 iff ids[i] equals the
 *    previous reference's dense id (with @p prev carried in from the
 *    previous chunk, ~0u -- never an id -- at trace start). Both
 *    last-line models consume it: a set bit is exactly a within-run
 *    reference served by the last-line register;
 *  - the set words: sets[i] = block_sets[ids[i]], the view's one set
 *    word per distinct block gathered per reference.
 */
void
computeLanesScalar(const std::uint32_t *ids, std::size_t n,
                   std::uint32_t prev, const std::uint32_t *block_sets,
                   std::uint8_t *same, std::uint32_t *sets)
{
    for (std::size_t i = 0; i < n; ++i) {
        const std::uint32_t id = ids[i];
        same[i] = id == prev;
        sets[i] = block_sets[id];
        prev = id;
    }
}

#if DYNEX_KERNEL_HAVE_AVX2
/** @pre every id is below 2^31: the gather's indices are signed. */
__attribute__((target("avx2"))) void
computeLanesAvx2(const std::uint32_t *ids, std::size_t n,
                 std::uint32_t prev, const std::uint32_t *block_sets,
                 std::uint8_t *same, std::uint32_t *sets)
{
    if (n == 0)
        return;
    same[0] = ids[0] == prev;
    sets[0] = block_sets[ids[0]];
    const int *const table = reinterpret_cast<const int *>(block_sets);
    std::size_t i = 1;
    for (; i + 8 <= n; i += 8) {
        const __m256i cur = _mm256_loadu_si256(
            reinterpret_cast<const __m256i *>(ids + i));
        const __m256i pre = _mm256_loadu_si256(
            reinterpret_cast<const __m256i *>(ids + i - 1));
        const unsigned mask = static_cast<unsigned>(_mm256_movemask_ps(
            _mm256_castsi256_ps(_mm256_cmpeq_epi32(cur, pre))));
        for (unsigned k = 0; k < 8; ++k)
            same[i + k] = (mask >> k) & 1;
        _mm256_storeu_si256(reinterpret_cast<__m256i *>(sets + i),
                            _mm256_i32gather_epi32(table, cur, 4));
    }
    for (; i < n; ++i) {
        same[i] = ids[i] == ids[i - 1];
        sets[i] = block_sets[ids[i]];
    }
}
#endif

void
computeLanes(KernelIsa isa, const std::uint32_t *ids, std::size_t n,
             std::uint32_t prev, const std::uint32_t *block_sets,
             std::uint8_t *same, std::uint32_t *sets)
{
#if DYNEX_KERNEL_HAVE_AVX2
    if (isa == KernelIsa::Avx2) {
        computeLanesAvx2(ids, n, prev, block_sets, same, sets);
        return;
    }
#endif
    (void)isa;
    computeLanesScalar(ids, n, prev, block_sets, same, sets);
}

/** The tag of an empty line: above every dense id, because a view
 * holds fewer than 2^32 references. */
constexpr std::uint32_t kNoBlock = ~std::uint32_t{0};

/**
 * One optimal-model set as one 64-bit word: the resident block's id in
 * the low half, its next-use tick in the high half. The model's random
 * probe is one load and its update one scalar select and store; as a
 * two-field struct the compiler vectorizes the select through SSE
 * shuffles, a longer chain than the scalar one.
 */
using OptLane = std::uint64_t;

constexpr OptLane
optLane(std::uint32_t id, std::uint32_t next)
{
    return std::uint64_t{next} << 32 | id;
}

/** All SoA lanes and event tallies of one (cache size) leg. */
struct KernelLeg
{
    std::uint64_t sizeBytes = 0;
    std::uint32_t setMask = 0;

    // Conventional direct-mapped: tags are dense block ids, and the
    // kNoBlock sentinel doubles as validity.
    std::vector<std::uint32_t> dmTags;
    std::uint64_t dmHits = 0, dmCold = 0;

    // Dynamic exclusion: tag + sticky lanes, one hit-last byte per
    // distinct block of the trace (indexed by the view's dense ids),
    // and one tally per Figure-1 arc (ColdFill, Hit, ReplaceUnsticky,
    // ReplaceHitLast, Bypass — the FsmEvent order).
    std::vector<std::uint32_t> deTags;
    std::vector<std::uint8_t> deSticky;
    std::vector<std::uint8_t> deHitLast;
    std::uint64_t deCnt[5] = {};
    std::uint64_t deLlHits = 0;

    // Optimal with bypass: interleaved tag + resident-next-use lanes.
    std::vector<OptLane> optLanes;
    std::uint64_t optHits = 0, optCold = 0, optEvict = 0,
                  optBypass = 0, optLlHits = 0;

    // Per-model replay wall time; accumulated only under a metrics
    // collector.
    std::uint64_t dmNs = 0, deNs = 0, optNs = 0;

    KernelLeg(std::uint64_t size_bytes, std::uint32_t line_bytes,
              std::size_t distinct_blocks,
              const DynamicExclusionConfig &config)
        : sizeBytes(size_bytes)
    {
        // Same construction-time validation as the model-based legs,
        // so a bad geometry fails a checked leg identically.
        const CacheGeometry geometry =
            CacheGeometry::directMapped(size_bytes, line_bytes);
        geometry.validate();
        const std::uint64_t sets = geometry.numSets();
        // Sets come from the view's 32-bit set words.
        if (sets > (std::uint64_t{1} << 32))
            throw StatusError(Status::invalidArgument(
                "kernel leg " + geometry.toString() + " has " +
                std::to_string(sets) +
                " sets; set indices are limited to 32 bits"));
        setMask = static_cast<std::uint32_t>(sets - 1);
        dmTags.assign(sets, kNoBlock);
        deTags.assign(sets, kNoBlock);
        deSticky.assign(sets, 0);
        deHitLast.assign(distinct_blocks, config.initialHitLast);
        optLanes.assign(sets, optLane(kNoBlock, 0));
    }
};

/** Which models a chunk instantiation replays (bit set). */
enum : unsigned
{
    kDm = 1,
    kDe = 2,
    kOpt = 4,
    kAll = kDm | kDe | kOpt,
};

/**
 * One chunk of @p Models on one leg: the kernel's only replay loop.
 * With every model on, one pass updates all three per reference,
 * sharing the block/set computation and letting the independent lane
 * probes overlap in the memory pipeline; under a metrics collector the
 * pass runs each model as its own instantiation so each can be timed.
 * Tallies are exact integers, so both shapes are bit-identical.
 *
 * Every lane update is branch-free: DE's Figure-1 arc comes from
 * fig1Arc as a select chain, and the bypass/retain decisions become
 * mask arithmetic, because they are data-dependent and a compiler-
 * chosen branch mispredicts through bypass-heavy legs. Only the
 * within-run skips remain branches. Per-model tallies stay in
 * registers (one named counter per arc; an indexed ++cnt[arc] would
 * move them to memory) and fold into the leg once per chunk.
 *
 * DE's h[x] is one byte per distinct block, read once and written
 * back unconditionally. A packed bit per block would make every
 * update a read-modify-write of a word shared with the neighbouring
 * blocks, and sequential code touches neighbours back to back, so
 * each reference would wait on the previous one's store through
 * store-to-load forwarding; with bytes, only a repeat of the same
 * block carries a dependence.
 *
 * @tparam LastLine DE's last-line mode; the optimal model always uses
 *         the last-line register, the conventional model never does.
 */
template <unsigned Models, bool LastLine>
DYNEX_KERNEL_NOINLINE void
chunk(KernelLeg &leg, const std::uint32_t *__restrict set_words,
      const std::uint32_t *__restrict ids,
      [[maybe_unused]] const std::uint32_t *__restrict next_use,
      [[maybe_unused]] const std::uint8_t *__restrict same,
      std::size_t n, [[maybe_unused]] std::uint8_t sticky_max)
{
    // __restrict throughout: the lane stores can never alias the
    // packed input arrays (or each other), and telling the compiler so
    // stops it reloading set_words[i]/ids[i]/next_use[i]/same[i] after
    // every store.
    std::uint32_t *const __restrict dm_tags = leg.dmTags.data();
    std::uint32_t *const __restrict de_tags = leg.deTags.data();
    std::uint8_t *const __restrict de_sticky = leg.deSticky.data();
    std::uint8_t *const __restrict hit_last = leg.deHitLast.data();
    OptLane *const __restrict opt = leg.optLanes.data();
    const std::uint32_t mask = leg.setMask;
    std::uint64_t dm_hits = 0, dm_cold = 0;
    std::uint64_t de_cold = 0, de_hit = 0, de_unsticky = 0,
                  de_override = 0, de_bypassed = 0, de_ll = 0;
    std::uint64_t opt_hits = 0, opt_cold = 0, opt_writes = 0,
                  opt_ll = 0;
    for (std::size_t i = 0; i < n; ++i) {
        const std::uint32_t id = ids[i];
        const std::size_t set = set_words[i] & mask;

        if constexpr ((Models & kDm) != 0) {
            // Always fill, so the tag store is unconditional.
            const std::uint32_t t = dm_tags[set];
            dm_hits += t == id;
            dm_cold += t == kNoBlock;
            dm_tags[set] = id;
        }

        if constexpr ((Models & kDe) != 0) {
            if (LastLine && same[i]) {
                // Within-run reference: the last-line buffer serves it
                // and the FSM deliberately does not observe it.
                ++de_ll;
            } else {
                const std::uint32_t t = de_tags[set];
                const std::uint8_t s = de_sticky[set];
                const bool h = hit_last[id];
                const FsmEvent arc =
                    fig1Arc(t != kNoBlock, t == id, s == 0, h);
                const bool bypass = arc == FsmEvent::Bypass;
                de_cold += arc == FsmEvent::ColdFill;
                de_hit += arc == FsmEvent::Hit;
                de_unsticky += arc == FsmEvent::ReplaceUnsticky;
                de_override += arc == FsmEvent::ReplaceHitLast;
                de_bypassed += bypass;
                // Bypass keeps the line and decays sticky; every other
                // arc installs the block at full stickiness.
                const std::uint32_t bmask =
                    0 - static_cast<std::uint32_t>(bypass);
                de_tags[set] = (t & bmask) | (id & ~bmask);
                de_sticky[set] = bypass ? static_cast<std::uint8_t>(s - 1)
                                        : sticky_max;
                // h[x] := 1 on fill/hit/unsticky replace, consumed
                // (:= 0) on a hit-last override, rewritten unchanged on
                // bypass -- exactly exclusionStep.
                hit_last[id] = bypass ? h : arc != FsmEvent::ReplaceHitLast;
            }
        }

        if constexpr ((Models & kOpt) != 0) {
            if (same[i]) {
                ++opt_ll;
            } else {
                // RunStart oracle: retain whichever of {resident,
                // incoming} is referenced sooner (kNever, "never
                // again", is the largest tick). Hits refresh the
                // resident next-use; cold misses and won conflicts
                // install the incoming block; lost conflicts bypass.
                const OptLane lane = opt[set];
                const std::uint32_t lane_id =
                    static_cast<std::uint32_t>(lane);
                const std::uint32_t next = next_use[i];
                const bool hit = lane_id == id;
                const bool cold_miss = lane_id == kNoBlock;
                const bool wins = next < lane >> 32;
                const bool write = hit | cold_miss | wins;
                const OptLane wmask = 0 - static_cast<OptLane>(write);
                opt[set] = (optLane(id, next) & wmask) | (lane & ~wmask);
                opt_hits += hit;
                opt_cold += cold_miss;
                opt_writes += write;
            }
        }
    }
    if constexpr ((Models & kDm) != 0) {
        leg.dmHits += dm_hits;
        leg.dmCold += dm_cold;
    }
    if constexpr ((Models & kDe) != 0) {
        leg.deCnt[0] += de_cold;
        leg.deCnt[1] += de_hit;
        leg.deCnt[2] += de_unsticky;
        leg.deCnt[3] += de_override;
        leg.deCnt[4] += de_bypassed;
        leg.deLlHits += de_ll;
    }
    if constexpr ((Models & kOpt) != 0) {
        // Every opt-visible reference resolves to exactly one of hit /
        // cold / evict / bypass: evictions are the writes that were
        // neither hits nor cold fills, bypasses are the non-writes.
        leg.optHits += opt_hits;
        leg.optCold += opt_cold;
        leg.optEvict += opt_writes - opt_hits - opt_cold;
        leg.optBypass += (n - opt_ll) - opt_writes;
        leg.optLlHits += opt_ll;
    }
}

/** Run chunk<Models> on @p leg at @p config's last-line mode. */
template <unsigned Models>
void
runChunk(KernelLeg &leg, const std::uint32_t *set_words,
         const std::uint32_t *ids, const std::uint32_t *next_use,
         const std::uint8_t *same, std::size_t n,
         const DynamicExclusionConfig &config)
{
    if (config.useLastLine)
        chunk<Models, true>(leg, set_words, ids, next_use, same, n,
                            config.stickyMax);
    else
        chunk<Models, false>(leg, set_words, ids, next_use, same, n,
                             config.stickyMax);
}

/** Derive the leg's TriadResult from the pass tallies; every counter
 * is the closed-form sum the models would have accumulated. */
TriadResult
legResult(const KernelLeg &leg, std::uint64_t refs)
{
    TriadResult r;

    r.dm.accesses = refs;
    r.dm.hits = leg.dmHits;
    r.dm.misses = refs - leg.dmHits;
    r.dm.coldMisses = leg.dmCold;
    r.dm.fills = r.dm.misses; // allocate-on-miss
    r.dm.evictions = r.dm.misses - leg.dmCold;

    const std::uint64_t de_hits = leg.deLlHits + leg.deCnt[1];
    r.de.accesses = refs;
    r.de.hits = de_hits;
    r.de.misses = refs - de_hits;
    r.de.coldMisses = leg.deCnt[0];
    r.de.fills = leg.deCnt[0] + leg.deCnt[2] + leg.deCnt[3];
    r.de.bypasses = leg.deCnt[4];
    r.de.evictions = leg.deCnt[2] + leg.deCnt[3];

    const std::uint64_t opt_hits = leg.optLlHits + leg.optHits;
    r.opt.accesses = refs;
    r.opt.hits = opt_hits;
    r.opt.misses = refs - opt_hits;
    r.opt.coldMisses = leg.optCold;
    r.opt.fills = leg.optCold + leg.optEvict;
    r.opt.bypasses = leg.optBypass;
    r.opt.evictions = leg.optEvict;

    // The model counts events through FsmEventCounts::note, which
    // compiles to nothing when the build disables it; mirror that so
    // reports stay identical either way.
    if constexpr (FsmEventCounts::enabled)
        for (std::size_t e = 0; e < 5; ++e)
            r.deEvents.byEvent[e] = leg.deCnt[e];
    return r;
}

/**
 * Stream @p view through every non-null leg once, in chunks. Each
 * chunk's run-boundary lane and set words are computed once
 * (computeLanes) and shared by every leg.
 *
 * Observability: per-chunk-per-model timing under a metrics collector
 * (never per reference), chunk and pass spans under a tracer,
 * trace-unit progress (the chunk serves every leg), and one
 * ReplayChunks count per chunk. With none installed the cost is three
 * null checks per chunk.
 */
void
runKernelPass(const PackedTraceView &view, const NextUseIndex &index,
              const std::string &label,
              std::vector<std::unique_ptr<KernelLeg>> &legs,
              const DynamicExclusionConfig &config)
{
    obs::MetricsCollector *const metrics = obs::activeMetrics();
    obs::Tracer *const tracer = obs::Tracer::active();
    obs::ProgressBar *const progress = obs::ProgressBar::active();

    // The AVX2 gather indexes with signed 32-bit lanes.
    const KernelIsa isa =
        view.distinctBlocks() <= (std::uint64_t{1} << 31)
            ? kernelDispatchIsa()
            : KernelIsa::Scalar;
    std::vector<std::uint8_t> same(detail::kBatchChunkRefs);
    std::vector<std::uint32_t> chunk_sets(detail::kBatchChunkRefs);
    std::uint32_t *const set_words = chunk_sets.data();

    const std::uint64_t pass_start = tracer ? tracer->nowNs() : 0;
    const std::uint32_t *block_sets = view.blockSetWords();
    const std::uint32_t *ids = view.ids();
    const std::uint32_t *next_use = index.ticks();
    const std::size_t n = view.size();
    std::uint32_t prev_id = kNoBlock;
    for (std::size_t base = 0; base < n;
         base += detail::kBatchChunkRefs) {
        const std::size_t end =
            std::min(n, base + detail::kBatchChunkRefs);
        const std::size_t len = end - base;
        computeLanes(isa, ids + base, len, prev_id, block_sets,
                     same.data(), set_words);
        prev_id = ids[end - 1];

        const std::uint64_t chunk_start = tracer ? tracer->nowNs() : 0;
        for (const auto &leg : legs) {
            if (!leg)
                continue;
            if (!metrics) {
                runChunk<kAll>(*leg, set_words, ids + base,
                               next_use + base, same.data(), len, config);
                continue;
            }
            // Per-model timing: each model runs as its own chunk
            // instantiation, so its time is measured, not apportioned.
            const std::uint64_t t0 = obs::monotonicNs();
            runChunk<kDm>(*leg, set_words, ids + base,
                          next_use + base, same.data(), len, config);
            const std::uint64_t t1 = obs::monotonicNs();
            runChunk<kDe>(*leg, set_words, ids + base,
                          next_use + base, same.data(), len, config);
            const std::uint64_t t2 = obs::monotonicNs();
            runChunk<kOpt>(*leg, set_words, ids + base,
                           next_use + base, same.data(), len, config);
            leg->dmNs += t1 - t0;
            leg->deNs += t2 - t1;
            leg->optNs += obs::monotonicNs() - t2;
        }
        if (metrics)
            metrics->add(obs::Counter::ReplayChunks, 1);
        if (progress)
            progress->add(len);
        if (tracer)
            tracer->complete("chunk@" + std::to_string(base), "kernel",
                             chunk_start,
                             tracer->nowNs() - chunk_start);
    }
    if (tracer)
        tracer->complete("kernel-replay " + label, "replay",
                         pass_start, tracer->nowNs() - pass_start);
}

/** Record every completed leg into its registered metrics slot (legs
 * that were never registered, or that failed, are skipped). */
void
fillLegMetrics(const std::string &label,
               const std::vector<std::uint64_t> &sizes,
               std::size_t refs,
               const std::vector<std::unique_ptr<KernelLeg>> &legs,
               const TriadBatchOutcome &outcome)
{
    obs::MetricsCollector *const metrics = obs::activeMetrics();
    if (!metrics)
        return;
    for (std::size_t s = 0; s < sizes.size(); ++s) {
        if (!outcome.ok[s])
            continue;
        obs::LegMetrics *const leg = metrics->leg(label, sizes[s]);
        if (!leg)
            continue;
        const TriadResult &triad = outcome.triads[s];
        leg->refs = refs;
        leg->dm = triad.dm;
        leg->de = triad.de;
        leg->opt = triad.opt;
        leg->deEvents = triad.deEvents;
        leg->dmReplayNs = legs[s]->dmNs;
        leg->deReplayNs = legs[s]->deNs;
        leg->optReplayNs = legs[s]->optNs;
        leg->replayNs = legs[s]->dmNs + legs[s]->deNs + legs[s]->optNs;
        leg->done = true;
    }
}

} // namespace

const char *
replayEngineName(ReplayEngine engine)
{
    return engine == ReplayEngine::PerLeg ? "per-leg" : "kernel";
}

std::optional<ReplayEngine>
parseReplayEngine(const std::string &name)
{
    if (iequals(name, "kernel") || iequals(name, "batched"))
        return ReplayEngine::Kernel;
    if (iequals(name, "per-leg"))
        return ReplayEngine::PerLeg;
    return std::nullopt;
}

KernelIsa
kernelDispatchIsa()
{
    if (gForceScalar.load(std::memory_order_relaxed) || !cpuHasAvx2())
        return KernelIsa::Scalar;
    return KernelIsa::Avx2;
}

void
setKernelForceScalar(bool force)
{
    gForceScalar.store(force, std::memory_order_relaxed);
}

std::string
FailedLeg::toString() const
{
    return bench + " @ " +
           (sizeBytes ? formatSize(sizeBytes) : std::string("all")) +
           " [" + model + "]: " + status.toString();
}

void
throwIfFailed(const std::vector<FailedLeg> &failures)
{
    if (!failures.empty())
        throw StatusError(failures.front().status);
}

ReplayArtifact::ReplayArtifact(std::string name, const Trace *trace,
                               PackedTraceView view)
    : sourceName(std::move(name)), source(trace), packed(std::move(view)),
      nextUse(packed, NextUseMode::RunStart)
{
}

std::shared_ptr<const ReplayArtifact>
buildReplayArtifact(const Trace &trace, std::uint32_t line_bytes,
                    const std::string &label)
{
    obs::MetricsCollector *const metrics = obs::activeMetrics();
    obs::Tracer *const tracer = obs::Tracer::active();
    const std::uint64_t metrics_t0 = metrics ? obs::monotonicNs() : 0;
    const std::uint64_t tracer_t0 = tracer ? tracer->nowNs() : 0;

    std::shared_ptr<const ReplayArtifact> artifact(new ReplayArtifact(
        trace.name(), &trace, PackedTraceView(trace, line_bytes)));

    if (metrics) {
        metrics->add(obs::Counter::IndexBuildNs,
                     obs::monotonicNs() - metrics_t0);
        metrics->add(obs::Counter::IndexBuilds, 1);
    }
    if (tracer)
        tracer->complete("index " + label, "index", tracer_t0,
                         tracer->nowNs() - tracer_t0);
    return artifact;
}

Result<std::shared_ptr<const ReplayArtifact>>
buildReplayArtifact(const std::string &path, std::uint32_t line_bytes)
{
    obs::MetricsCollector *const metrics = obs::activeMetrics();
    obs::Tracer *const tracer = obs::Tracer::active();
    // One clock for every delta: the tracer's when it is installed,
    // so the decode spans and the charged time agree.
    const auto now = [tracer] {
        return tracer ? tracer->nowNs() : obs::monotonicNs();
    };
    const bool timed = metrics || tracer;
    const std::uint64_t t0 = timed ? now() : 0;

    TraceDecoder decoder(path);
    if (Status status = decoder.open(); !status.ok())
        return status;
    std::uint64_t decode_ns = timed ? now() - t0 : 0;
    PackedTraceView view(line_bytes, decoder.reserveRecords());
    for (std::span<const MemRef> block;;) {
        const std::uint64_t block_t0 = timed ? now() : 0;
        if (Status status = decoder.next(block); !status.ok())
            return status;
        if (timed) {
            const std::uint64_t block_ns = now() - block_t0;
            decode_ns += block_ns;
            if (tracer && !block.empty())
                tracer->complete("decode@" + std::to_string(view.size()),
                                 "load", block_t0, block_ns);
        }
        if (block.empty())
            break;
        if (view.size() + block.size() >= (std::uint64_t{1} << 32))
            return Status::resourceLimit(
                       "2^32 or more references: a replay artifact "
                       "numbers them with 32-bit ids")
                .withContext(path);
        view.append(block);
    }
    view.finish();

    std::shared_ptr<const ReplayArtifact> artifact(
        new ReplayArtifact(decoder.name(), nullptr, std::move(view)));

    if (timed) {
        const std::uint64_t total_ns = now() - t0;
        if (metrics) {
            metrics->add(obs::Counter::TraceLoadNs, decode_ns);
            metrics->add(obs::Counter::TraceLoadRefs, artifact->refs());
            metrics->add(obs::Counter::IndexBuildNs, total_ns - decode_ns);
            metrics->add(obs::Counter::IndexBuilds, 1);
        }
        if (tracer)
            tracer->complete("index " + artifact->name(), "index", t0,
                             total_ns);
    }
    return artifact;
}

TriadBatchOutcome
replayTriadKernel(const ReplayArtifact &artifact,
                  const std::vector<std::uint64_t> &sizes,
                  const DynamicExclusionConfig &de_config,
                  const std::string &label)
{
    DYNEX_ASSERT(de_config.stickyMax >= 1,
                 "sticky_max must be at least 1");
    const PackedTraceView &view = artifact.view();

    TriadBatchOutcome outcome;
    outcome.triads.resize(sizes.size());
    outcome.ok.assign(sizes.size(), 0);

    // A leg that fails setup (or an injected fault) leaves its slot
    // null and is skipped by the pass; legs never interact, so the
    // survivors replay exactly as they would in an unfaulted run.
    std::vector<std::unique_ptr<KernelLeg>> legs(sizes.size());
    std::vector<Status> leg_status(sizes.size());
    for (std::size_t s = 0; s < sizes.size(); ++s) {
        try {
            if (const auto &hook = sweepFaultHook())
                hook(label, sizes[s]);
            legs[s] = std::make_unique<KernelLeg>(
                sizes[s], artifact.lineBytes(), view.distinctBlocks(),
                de_config);
        } catch (...) {
            legs[s].reset();
            leg_status[s] = statusFromException(std::current_exception());
        }
    }

    runKernelPass(view, artifact.index(), label, legs, de_config);

    for (std::size_t s = 0; s < sizes.size(); ++s) {
        if (legs[s]) {
            outcome.triads[s] = legResult(*legs[s], view.size());
            leg_status[s] =
                checkLegIdentities(outcome.triads[s], legs[s]->deLlHits);
        }
        outcome.ok[s] = leg_status[s].ok();
        if (!outcome.ok[s])
            outcome.failures.push_back(
                {label, sizes[s], "triad", std::move(leg_status[s])});
    }
    fillLegMetrics(label, sizes, view.size(), legs, outcome);
    return outcome;
}

namespace
{

/** a + b == total with neither part above the total. */
bool
sumsTo(Count a, Count b, Count total)
{
    return a <= total && b <= total && a + b == total;
}

Status
brokenIdentity(const char *model, const char *identity, Count a, Count b,
               Count total)
{
    return Status::internal(std::string("leg identity broken: ") + model +
                            " " + identity + " (" + std::to_string(a) +
                            " + " + std::to_string(b) +
                            " != " + std::to_string(total) + ")");
}

} // namespace

Status
checkLegIdentities(const TriadResult &triad, Count de_last_line_hits)
{
    const std::pair<const char *, const CacheStats *> models[] = {
        {"dm", &triad.dm}, {"de", &triad.de}, {"opt", &triad.opt}};
    for (const auto &[model, stats] : models) {
        if (!sumsTo(stats->hits, stats->misses, stats->accesses))
            return brokenIdentity(model, "hits + misses = accesses",
                                  stats->hits, stats->misses,
                                  stats->accesses);
        if (!sumsTo(stats->fills, stats->bypasses, stats->misses))
            return brokenIdentity(model, "fills + bypasses = misses",
                                  stats->fills, stats->bypasses,
                                  stats->misses);
        if (!sumsTo(stats->evictions, stats->coldMisses, stats->fills))
            return brokenIdentity(model, "evictions = fills - cold",
                                  stats->evictions, stats->coldMisses,
                                  stats->fills);
    }
    if constexpr (FsmEventCounts::enabled) {
        Count arcs = 0;
        bool bounded = true;
        for (const Count arc : triad.deEvents.byEvent) {
            bounded = bounded && arc <= triad.de.accesses;
            arcs += arc;
        }
        if (!bounded ||
            !sumsTo(arcs, de_last_line_hits, triad.de.accesses))
            return brokenIdentity(
                "de", "Figure-1 arcs = accesses - last-line hits", arcs,
                de_last_line_hits, triad.de.accesses);
    }
    if (triad.dm.coldMisses != triad.de.coldMisses ||
        triad.dm.coldMisses != triad.opt.coldMisses)
        return Status::internal(
            "leg identity broken: cold misses equal across dm, de and "
            "opt (" + std::to_string(triad.dm.coldMisses) + ", " +
            std::to_string(triad.de.coldMisses) + ", " +
            std::to_string(triad.opt.coldMisses) + ")");
    return Status();
}

} // namespace dynex

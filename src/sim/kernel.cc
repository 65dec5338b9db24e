#include "sim/kernel.h"

#include <atomic>
#include <cstdlib>
#include <memory>

#if defined(__x86_64__) && defined(__GNUC__)
#define DYNEX_KERNEL_HAVE_AVX2 1
#include <immintrin.h>
#else
#define DYNEX_KERNEL_HAVE_AVX2 0
#endif

#include "cache/hit_last.h"
#include "obs/metrics.h"
#include "obs/progress.h"
#include "obs/trace_events.h"
#include "util/logging.h"
#include "util/string_utils.h"

// The chunk loops run hot enough that inlining them into the (large)
// pass driver costs real speed: the merged frame spills their loop
// registers. Pinning them out of line gives each loop a clean
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
envForceScalar()
{
    static const bool forced = [] {
        const char *env = std::getenv("DYNEX_KERNEL_FORCE_SCALAR");
        return env && *env && !(env[0] == '0' && env[1] == '\0');
    }();
    return forced;
}

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
 * The run-boundary lane: same[i] = 1 iff blocks[i] equals the previous
 * block of the trace (with @p prev carried in from the previous chunk,
 * kAddrInvalid at trace start). Both last-line models consume it: a
 * set bit is exactly a within-run reference served by the last-line
 * register.
 */
void
computeSameScalar(const Addr *blocks, std::size_t n, Addr prev,
                  std::uint8_t *same)
{
    for (std::size_t i = 0; i < n; ++i) {
        same[i] = blocks[i] == prev;
        prev = blocks[i];
    }
}

#if DYNEX_KERNEL_HAVE_AVX2
__attribute__((target("avx2"))) void
computeSameAvx2(const Addr *blocks, std::size_t n, Addr prev,
                std::uint8_t *same)
{
    if (n == 0)
        return;
    same[0] = blocks[0] == prev;
    std::size_t i = 1;
    for (; i + 4 <= n; i += 4) {
        const __m256i cur = _mm256_loadu_si256(
            reinterpret_cast<const __m256i *>(blocks + i));
        const __m256i pre = _mm256_loadu_si256(
            reinterpret_cast<const __m256i *>(blocks + i - 1));
        const __m256i eq = _mm256_cmpeq_epi64(cur, pre);
        const int mask =
            _mm256_movemask_pd(_mm256_castsi256_pd(eq));
        same[i] = mask & 1;
        same[i + 1] = (mask >> 1) & 1;
        same[i + 2] = (mask >> 2) & 1;
        same[i + 3] = (mask >> 3) & 1;
    }
    for (; i < n; ++i)
        same[i] = blocks[i] == blocks[i - 1];
}
#endif

void
computeSame(KernelIsa isa, const Addr *blocks, std::size_t n,
            Addr prev, std::uint8_t *same)
{
#if DYNEX_KERNEL_HAVE_AVX2
    if (isa == KernelIsa::Avx2) {
        computeSameAvx2(blocks, n, prev, same);
        return;
    }
#endif
    (void)isa;
    computeSameScalar(blocks, n, prev, same);
}

/**
 * Per-leg hit-last bits. Traces with a compact block range get a flat
 * bitmap (one load + shift per probe, no pointer chase); anything
 * sparse enough to blow the cap falls back to the exact
 * IdealHitLastStore, whose values are identical by construction.
 */
class HitLastLane
{
  public:
    /** Blocks at or above this never use the flat bitmap (8MB). */
    static constexpr Addr kFlatCapBlocks = Addr{1} << 26;

    void
    init(Addr max_block, bool initial_value)
    {
        if (max_block != kAddrInvalid && max_block < kFlatCapBlocks) {
            words.assign((max_block >> 6) + 1,
                         initial_value ? ~std::uint64_t{0} : 0);
        } else {
            store = std::make_unique<IdealHitLastStore>(initial_value);
        }
    }

    bool isFlat() const { return !words.empty(); }
    std::uint64_t *flatWords() { return words.data(); }
    IdealHitLastStore *fallback() { return store.get(); }

  private:
    std::vector<std::uint64_t> words;
    std::unique_ptr<IdealHitLastStore> store;
};

/** Flat-bitmap hit-last access policy for the DE chunk loop. */
struct FlatHitLast
{
    std::uint64_t *__restrict words;

    bool
    get(Addr block) const
    {
        return (words[block >> 6] >> (block & 63)) & 1;
    }

    /** h[block] := @p keep ? unchanged : @p value, with no branch:
     * `keep` follows the bypass decision, which flips irregularly, so
     * a branch here would mispredict its way through bypass-heavy
     * legs. */
    void
    update(Addr block, bool keep, bool value)
    {
        std::uint64_t &word = words[block >> 6];
        const unsigned pos = static_cast<unsigned>(block & 63);
        const std::uint64_t bit = std::uint64_t{1} << pos;
        const std::uint64_t keep_mask =
            0 - static_cast<std::uint64_t>(keep);
        const std::uint64_t new_bit =
            (keep_mask & word) |
            (~keep_mask & (static_cast<std::uint64_t>(value) << pos));
        word = (word & ~bit) | (new_bit & bit);
    }
};

/** IdealHitLastStore-backed policy (sparse traces). */
struct StoreHitLast
{
    IdealHitLastStore *store;

    bool get(Addr block) const { return store->lookup(block); }

    void
    update(Addr block, bool keep, bool value)
    {
        if (!keep)
            store->update(block, value);
    }
};

/** One optimal-model set: tag and resident next-use share a 16-byte
 * lane, so the model's random probe touches one cache line instead of
 * two parallel arrays. */
struct OptLane
{
    Addr tag;
    Tick next;
};

/** All SoA lanes and event tallies of one (cache size) leg. */
struct KernelLeg
{
    std::uint64_t sizeBytes = 0;
    Addr setMask = 0;

    // Conventional direct-mapped: sentinel tags double as validity.
    std::vector<Addr> dmTags;
    std::uint64_t dmHits = 0, dmCold = 0;

    // Dynamic exclusion: tag + sticky lanes, hit-last bitmap, and one
    // tally per Figure-1 arc (ColdFill, Hit, ReplaceUnsticky,
    // ReplaceHitLast, Bypass — the FsmEvent order).
    std::vector<Addr> deTags;
    std::vector<std::uint8_t> deSticky;
    HitLastLane deHitLast;
    std::uint64_t deCnt[5] = {};
    std::uint64_t deLlHits = 0;

    // Optimal with bypass: interleaved tag + resident-next-use lanes.
    std::vector<OptLane> optLanes;
    std::uint64_t optHits = 0, optCold = 0, optEvict = 0,
                  optBypass = 0, optLlHits = 0;

    KernelLeg(std::uint64_t size_bytes, std::uint32_t line_bytes,
              Addr max_block, const DynamicExclusionConfig &config)
        : sizeBytes(size_bytes)
    {
        // Same construction-time validation as the model-based legs,
        // so a bad geometry fails a checked leg identically.
        const CacheGeometry geometry =
            CacheGeometry::directMapped(size_bytes, line_bytes);
        geometry.validate();
        const std::uint64_t sets = geometry.numSets();
        setMask = sets - 1;
        dmTags.assign(sets, kAddrInvalid);
        deTags.assign(sets, kAddrInvalid);
        deSticky.assign(sets, 0);
        deHitLast.init(max_block, config.initialHitLast);
        optLanes.assign(sets, OptLane{kAddrInvalid, 0});
    }
};

/** One chunk of the conventional direct-mapped model: always fill, so
 * the tag store is unconditional and the loop carries no branches. */
DYNEX_KERNEL_NOINLINE void
dmChunk(KernelLeg &leg, const Addr *__restrict blocks, std::size_t n)
{
    // __restrict throughout the chunk loops: the lane stores can never
    // alias the packed input arrays, and telling the compiler so stops
    // it reloading blocks[i]/next_use[i]/same[i] after every store —
    // these loops retire at full issue width, so every spared
    // instruction is wall-clock.
    Addr *const __restrict tags = leg.dmTags.data();
    const Addr mask = leg.setMask;
    std::uint64_t hits = 0, cold = 0;
    for (std::size_t i = 0; i < n; ++i) {
        const Addr blk = blocks[i];
        const std::size_t set = static_cast<std::size_t>(blk & mask);
        const Addr t = tags[set];
        hits += t == blk;
        cold += t == kAddrInvalid;
        tags[set] = blk;
    }
    leg.dmHits += hits;
    leg.dmCold += cold;
}

/**
 * One chunk of the dynamic-exclusion model. The Figure-1 arc is
 * computed as a branchless select chain (index 0-4 in FsmEvent
 * order) and every lane update is a conditional move off it; only the
 * within-run skip and the hit-last write remain branches.
 */
template <bool LastLine, typename HitLast>
DYNEX_KERNEL_NOINLINE void
deChunk(KernelLeg &leg, HitLast hit_last,
        const Addr *__restrict blocks,
        const std::uint8_t *__restrict same, std::size_t n,
        std::uint8_t sticky_max)
{
    Addr *const __restrict tags = leg.deTags.data();
    std::uint8_t *const __restrict sticky = leg.deSticky.data();
    const Addr mask = leg.setMask;
    std::uint64_t cold = 0, hit = 0, unsticky = 0, override_ = 0,
                  bypassed = 0, ll = 0;
    for (std::size_t i = 0; i < n; ++i) {
        const Addr blk = blocks[i];
        if constexpr (LastLine) {
            if (same[i]) {
                // Within-run reference: the last-line buffer serves it
                // and the FSM deliberately does not observe it.
                ++ll;
                continue;
            }
        }
        const std::size_t set = static_cast<std::size_t>(blk & mask);
        const Addr t = tags[set];
        const std::uint8_t s = sticky[set];
        const bool h = hit_last.get(blk);
        const unsigned arc = t == kAddrInvalid ? 0u
                             : t == blk        ? 1u
                             : s == 0          ? 2u
                             : h               ? 3u
                                               : 4u;
        const bool bypass = arc == 4;
        cold += arc == 0;
        hit += arc == 1;
        unsticky += arc == 2;
        override_ += arc == 3;
        bypassed += bypass;
        // Bypass keeps the line and decays sticky; everything else
        // installs the block at full stickiness. Mask arithmetic, not
        // selects: the bypass decision is data-dependent and a branch
        // here mispredicts constantly (see optChunk).
        const Addr bmask = 0 - static_cast<Addr>(bypass);
        tags[set] = (t & bmask) | (blk & ~bmask);
        sticky[set] = bypass ? static_cast<std::uint8_t>(s - 1)
                             : sticky_max;
        // h[x] := 1 on fill/hit, consumed (:= 0) on a hit-last
        // override, untouched on bypass — exactly exclusionStep.
        hit_last.update(blk, bypass, arc != 3);
    }
    leg.deCnt[0] += cold;
    leg.deCnt[1] += hit;
    leg.deCnt[2] += unsticky;
    leg.deCnt[3] += override_;
    leg.deCnt[4] += bypassed;
    leg.deLlHits += ll;
}

template <typename HitLast>
void
deChunkDispatch(KernelLeg &leg, HitLast hit_last, const Addr *blocks,
                const std::uint8_t *same, std::size_t n,
                bool last_line, std::uint8_t sticky_max)
{
    if (last_line)
        deChunk<true>(leg, hit_last, blocks, same, n, sticky_max);
    else
        deChunk<false>(leg, hit_last, blocks, same, n, sticky_max);
}

/**
 * One chunk of the optimal model (always last-line, RunStart oracle):
 * retain whichever of {resident, incoming} is referenced sooner; all
 * lane updates are conditional moves off the retain decision.
 */
DYNEX_KERNEL_NOINLINE void
optChunk(KernelLeg &leg, const Addr *__restrict blocks,
         const Tick *__restrict next_use,
         const std::uint8_t *__restrict same, std::size_t n)
{
    OptLane *const __restrict lanes = leg.optLanes.data();
    const Addr mask = leg.setMask;
    std::uint64_t hits = 0, cold = 0, writes = 0, ll = 0;
    for (std::size_t i = 0; i < n; ++i) {
        if (same[i]) {
            ++ll;
            continue;
        }
        const Addr blk = blocks[i];
        const std::size_t set = static_cast<std::size_t>(blk & mask);
        OptLane &lane = lanes[set];
        const Tick next = next_use[i];
        const bool hit = lane.tag == blk;
        const bool cold_miss = lane.tag == kAddrInvalid;
        const bool wins = next < lane.next;
        // Hits refresh the resident next-use; cold misses and won
        // conflicts install the incoming block; lost conflicts
        // bypass. The select is spelled as mask arithmetic because
        // `write` is data-dependent (bypass-heavy legs flip it
        // irregularly); a compiler-chosen branch here mispredicts
        // constantly.
        const bool write = hit | cold_miss | wins;
        const Addr wmask = 0 - static_cast<Addr>(write);
        lane.tag = (blk & wmask) | (lane.tag & ~wmask);
        lane.next = (next & wmask) | (lane.next & ~wmask);
        hits += hit;
        cold += cold_miss;
        writes += write;
    }
    // Each visible reference is exactly one of hit / cold / evict /
    // bypass; a write that is neither hit nor cold evicted, and a
    // non-write bypassed, so both fall out of three cheap tallies.
    leg.optHits += hits;
    leg.optCold += cold;
    leg.optEvict += writes - hits - cold;
    leg.optBypass += (n - ll) - writes;
    leg.optLlHits += ll;
}

/**
 * The metrics-off fast path: one pass over the chunk updates all
 * three models per reference, sharing the block/set computation and
 * letting the three independent lane probes overlap in the memory
 * pipeline. Tallies are exact integers, so this is bit-identical to
 * the split per-model loops (kept for per-model replay timing when a
 * metrics collector is installed).
 */
template <bool LastLine, typename HitLast>
DYNEX_KERNEL_NOINLINE void
fusedChunk(KernelLeg &leg, HitLast hit_last,
           const Addr *__restrict blocks,
           const Tick *__restrict next_use,
           const std::uint8_t *__restrict same, std::size_t n,
           std::uint8_t sticky_max)
{
    Addr *const __restrict dm_tags = leg.dmTags.data();
    Addr *const __restrict de_tags = leg.deTags.data();
    std::uint8_t *const __restrict de_sticky = leg.deSticky.data();
    OptLane *const __restrict opt = leg.optLanes.data();
    const Addr mask = leg.setMask;
    std::uint64_t dm_hits = 0, dm_cold = 0;
    std::uint64_t de_cold = 0, de_hit = 0, de_unsticky = 0,
                  de_override = 0, de_bypassed = 0, de_ll = 0;
    std::uint64_t opt_hits = 0, opt_cold = 0, opt_writes = 0,
                  opt_ll = 0;
    for (std::size_t i = 0; i < n; ++i) {
        const Addr blk = blocks[i];
        const std::size_t set = static_cast<std::size_t>(blk & mask);
        const bool rerun = same[i] != 0;

        const Addr dm_t = dm_tags[set];
        dm_hits += dm_t == blk;
        dm_cold += dm_t == kAddrInvalid;
        dm_tags[set] = blk;

        if (!LastLine || !rerun) {
            const Addr t = de_tags[set];
            const std::uint8_t s = de_sticky[set];
            const bool h = hit_last.get(blk);
            const unsigned arc = t == kAddrInvalid ? 0u
                                 : t == blk        ? 1u
                                 : s == 0          ? 2u
                                 : h               ? 3u
                                                   : 4u;
            const bool de_bypass = arc == 4;
            de_cold += arc == 0;
            de_hit += arc == 1;
            de_unsticky += arc == 2;
            de_override += arc == 3;
            de_bypassed += de_bypass;
            // Mask arithmetic, not selects: see deChunk.
            const Addr bmask = 0 - static_cast<Addr>(de_bypass);
            de_tags[set] = (t & bmask) | (blk & ~bmask);
            de_sticky[set] =
                de_bypass ? static_cast<std::uint8_t>(s - 1)
                          : sticky_max;
            hit_last.update(blk, de_bypass, arc != 3);
        } else {
            ++de_ll;
        }

        if (!rerun) {
            OptLane &lane = opt[set];
            const Tick next = next_use[i];
            const bool hit = lane.tag == blk;
            const bool cold_miss = lane.tag == kAddrInvalid;
            const bool wins = next < lane.next;
            // Mask arithmetic, not a select: see optChunk.
            const bool write = hit | cold_miss | wins;
            const Addr wmask = 0 - static_cast<Addr>(write);
            lane.tag = (blk & wmask) | (lane.tag & ~wmask);
            lane.next = (next & wmask) | (lane.next & ~wmask);
            opt_hits += hit;
            opt_cold += cold_miss;
            opt_writes += write;
        } else {
            ++opt_ll;
        }
    }
    leg.dmHits += dm_hits;
    leg.dmCold += dm_cold;
    leg.deCnt[0] += de_cold;
    leg.deCnt[1] += de_hit;
    leg.deCnt[2] += de_unsticky;
    leg.deCnt[3] += de_override;
    leg.deCnt[4] += de_bypassed;
    leg.deLlHits += de_ll;
    leg.optHits += opt_hits;
    leg.optCold += opt_cold;
    // Every opt-visible reference resolves to exactly one of hit /
    // cold / evict / bypass: evictions are the writes that were
    // neither hits nor cold fills, bypasses are the non-writes.
    leg.optEvict += opt_writes - opt_hits - opt_cold;
    leg.optBypass += (n - opt_ll) - opt_writes;
    leg.optLlHits += opt_ll;
}

template <typename HitLast>
void
fusedChunkDispatch(KernelLeg &leg, HitLast hit_last,
                   const Addr *blocks, const Tick *next_use,
                   const std::uint8_t *same, std::size_t n,
                   bool last_line, std::uint8_t sticky_max)
{
    if (last_line)
        fusedChunk<true>(leg, hit_last, blocks, next_use, same, n,
                         sticky_max);
    else
        fusedChunk<false>(leg, hit_last, blocks, next_use, same, n,
                          sticky_max);
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

/** Per-(size, model) wall time of one kernel pass; empty when no
 * metrics collector is installed. */
struct KernelPassTiming
{
    std::vector<std::uint64_t> dmNs;
    std::vector<std::uint64_t> deNs;
    std::vector<std::uint64_t> optNs;

    bool enabled() const { return !dmNs.empty(); }
};

/** The largest block number of the view (kAddrInvalid when empty),
 * used to size the flat hit-last bitmaps. */
Addr
maxBlockOf(const PackedTraceView &view)
{
    const Addr *blocks = view.blocks();
    const std::size_t n = view.size();
    if (n == 0)
        return kAddrInvalid;
    Addr max_block = 0;
    for (std::size_t i = 0; i < n; ++i)
        max_block = blocks[i] > max_block ? blocks[i] : max_block;
    return max_block;
}

/**
 * Stream @p view through every non-null leg once, in chunks.
 *
 * Observability: per-chunk-per-model timing under a metrics collector
 * (never per reference), chunk and pass spans under a tracer,
 * trace-unit progress (the chunk serves every leg), and one
 * ReplayChunks count per chunk. With none installed the cost is three
 * null checks per chunk.
 */
KernelPassTiming
runKernelPass(const PackedTraceView &view, const NextUseIndex &index,
              const std::string &label,
              std::vector<std::unique_ptr<KernelLeg>> &legs,
              const DynamicExclusionConfig &config)
{
    obs::MetricsCollector *const metrics = obs::activeMetrics();
    obs::Tracer *const tracer = obs::Tracer::active();
    obs::ProgressBar *const progress = obs::ProgressBar::active();

    KernelPassTiming timing;
    if (metrics) {
        timing.dmNs.assign(legs.size(), 0);
        timing.deNs.assign(legs.size(), 0);
        timing.optNs.assign(legs.size(), 0);
    }

    const KernelIsa isa = kernelDispatchIsa();
    const bool last_line = config.useLastLine;
    const std::uint8_t sticky_max = config.stickyMax;
    std::vector<std::uint8_t> same(detail::kBatchChunkRefs);

    const std::uint64_t pass_start = tracer ? tracer->nowNs() : 0;
    const Addr *blocks = view.blocks();
    const Tick *next_use = index.values().data();
    const std::size_t n = view.size();
    Addr prev_block = kAddrInvalid;
    for (std::size_t base = 0; base < n;
         base += detail::kBatchChunkRefs) {
        const std::size_t end =
            std::min(n, base + detail::kBatchChunkRefs);
        const std::size_t len = end - base;
        computeSame(isa, blocks + base, len, prev_block, same.data());
        prev_block = blocks[end - 1];

        const std::uint64_t chunk_start = tracer ? tracer->nowNs() : 0;
        for (std::size_t s = 0; s < legs.size(); ++s) {
            KernelLeg *const leg = legs[s].get();
            if (!leg)
                continue;
            if (!metrics) {
                // No per-model timing wanted: one fused pass per leg.
                if (leg->deHitLast.isFlat())
                    fusedChunkDispatch(
                        *leg, FlatHitLast{leg->deHitLast.flatWords()},
                        blocks + base, next_use + base, same.data(),
                        len, last_line, sticky_max);
                else
                    fusedChunkDispatch(
                        *leg, StoreHitLast{leg->deHitLast.fallback()},
                        blocks + base, next_use + base, same.data(),
                        len, last_line, sticky_max);
                continue;
            }
            const std::uint64_t t0 = obs::monotonicNs();
            dmChunk(*leg, blocks + base, len);
            const std::uint64_t t1 = obs::monotonicNs();
            if (leg->deHitLast.isFlat())
                deChunkDispatch(*leg,
                                FlatHitLast{leg->deHitLast.flatWords()},
                                blocks + base, same.data(), len,
                                last_line, sticky_max);
            else
                deChunkDispatch(*leg,
                                StoreHitLast{leg->deHitLast.fallback()},
                                blocks + base, same.data(), len,
                                last_line, sticky_max);
            const std::uint64_t t2 = obs::monotonicNs();
            optChunk(*leg, blocks + base, next_use + base, same.data(),
                     len);
            timing.dmNs[s] += t1 - t0;
            timing.deNs[s] += t2 - t1;
            timing.optNs[s] += obs::monotonicNs() - t2;
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
    return timing;
}

/** Record every completed leg into its registered metrics slot (legs
 * that were never registered, or whose setup failed, are skipped). */
void
fillLegMetrics(const std::string &label,
               const std::vector<std::uint64_t> &sizes,
               std::size_t refs, const KernelPassTiming &timing,
               const std::vector<std::unique_ptr<KernelLeg>> &legs,
               const std::vector<TriadResult> &triads)
{
    obs::MetricsCollector *const metrics = obs::activeMetrics();
    if (!metrics)
        return;
    for (std::size_t s = 0; s < sizes.size(); ++s) {
        if (!legs[s])
            continue;
        obs::LegMetrics *const leg = metrics->leg(label, sizes[s]);
        if (!leg)
            continue;
        leg->refs = refs;
        leg->dm = triads[s].dm;
        leg->de = triads[s].de;
        leg->opt = triads[s].opt;
        leg->deEvents = triads[s].deEvents;
        if (timing.enabled()) {
            leg->dmReplayNs = timing.dmNs[s];
            leg->deReplayNs = timing.deNs[s];
            leg->optReplayNs = timing.optNs[s];
            leg->replayNs = timing.dmNs[s] + timing.deNs[s] +
                            timing.optNs[s];
        }
        leg->done = true;
    }
}

void
checkKernelInputs(const PackedTraceView &view,
                  const NextUseIndex &index, std::uint32_t line_bytes,
                  const DynamicExclusionConfig &config)
{
    DYNEX_ASSERT(index.blockSize() == line_bytes,
                 "index granularity mismatch");
    DYNEX_ASSERT(view.blockBytes() == line_bytes,
                 "packed view granularity mismatch");
    DYNEX_ASSERT(view.size() <= index.size(),
                 "next-use index shorter than the trace");
    DYNEX_ASSERT(config.stickyMax >= 1,
                 "sticky_max must be at least 1");
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

const char *
kernelIsaName(KernelIsa isa)
{
    return isa == KernelIsa::Avx2 ? "avx2" : "scalar";
}

KernelIsa
kernelDispatchIsa()
{
    if (gForceScalar.load(std::memory_order_relaxed) ||
        envForceScalar() || !cpuHasAvx2())
        return KernelIsa::Scalar;
    return KernelIsa::Avx2;
}

void
setKernelForceScalar(bool force)
{
    gForceScalar.store(force, std::memory_order_relaxed);
}

bool
kernelForceScalar()
{
    return gForceScalar.load(std::memory_order_relaxed);
}

TriadBatchOutcome
replayTriadKernel(const PackedTraceView &view, const NextUseIndex &index,
                  const std::vector<std::uint64_t> &sizes,
                  std::uint32_t line_bytes,
                  const DynamicExclusionConfig &de_config,
                  const std::string &label)
{
    checkKernelInputs(view, index, line_bytes, de_config);
    const Addr max_block = maxBlockOf(view);

    TriadBatchOutcome outcome;
    outcome.triads.resize(sizes.size());
    outcome.ok.assign(sizes.size(), 0);

    // A leg that fails setup (or an injected fault) leaves its slot
    // null and is skipped by the pass; legs never interact, so the
    // survivors replay exactly as they would in an unfaulted run.
    std::vector<std::unique_ptr<KernelLeg>> legs(sizes.size());
    for (std::size_t s = 0; s < sizes.size(); ++s) {
        try {
            if (const auto &hook = sweepFaultHook())
                hook(label, sizes[s]);
            legs[s] = std::make_unique<KernelLeg>(
                sizes[s], line_bytes, max_block, de_config);
            outcome.ok[s] = 1;
        } catch (...) {
            legs[s].reset();
            outcome.failures.push_back(
                {s, statusFromException(std::current_exception())});
        }
    }

    const KernelPassTiming timing =
        runKernelPass(view, index, label, legs, de_config);

    for (std::size_t s = 0; s < sizes.size(); ++s)
        if (outcome.ok[s])
            outcome.triads[s] = legResult(*legs[s], view.size());
    fillLegMetrics(label, sizes, view.size(), timing, legs,
                   outcome.triads);
    return outcome;
}

std::vector<TriadResult>
kernelTriadsOrThrow(TriadBatchOutcome outcome)
{
    if (!outcome.allOk())
        throw StatusError(std::move(outcome.failures.front().status));
    return std::move(outcome.triads);
}

} // namespace dynex

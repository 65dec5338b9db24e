#include "sim/kernel.h"

#include <algorithm>
#include <array>
#include <atomic>
#include <bit>
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

/** A shared-bit count above every SetSharing value: the smallest
 * count of an empty list. */
constexpr std::uint8_t kNoShared = 0xff;

/**
 * The references of one chunk that a leg replays in its lanes, as
 * parallel arrays: dense id, set word, next-use tick, the block's
 * SetSharing count and, without the last-line register, the within-run
 * flag the optimal lane consumes. Everything else the chunk holds is
 * closed form (addClosedForm):
 *  - with the last-line register, a within-run reference (its block is
 *    the previous reference's) hits in every model and changes no
 *    lane, so the list starts as the chunk's run starts;
 *  - a block alone in its set at the leg's size is one cold fill and
 *    then hits, so each leg, in ascending set count, drops the entries
 *    that became private since the previous leg (keepSharedAt). A set
 *    only splits as the size doubles, so a dropped entry never comes
 *    back, and one list serves every leg of the chunk.
 */
struct LaneList
{
    std::vector<std::uint32_t> ids, sets, next;
    /** same is empty with the last-line register: nothing reads it. */
    std::vector<std::uint8_t> shared, same;
    std::size_t size = 0;
    /** The smallest shared count in the list; kNoShared when empty. */
    std::uint8_t minShared = kNoShared;

    explicit LaneList(bool last_line)
        : ids(detail::kBatchChunkRefs), sets(detail::kBatchChunkRefs),
          next(detail::kBatchChunkRefs), shared(detail::kBatchChunkRefs),
          same(last_line ? 0 : detail::kBatchChunkRefs)
    {
    }
};

/**
 * Start @p list from one chunk of @p n references: every reference, or
 * with @p LastLine only the run starts (with @p prev, the previous
 * chunk's last id, carried in; ~0u -- never an id -- at trace start).
 * Set words and shared counts are gathered per entry from the view's
 * per-block arrays. Entries from @p i on are appended at @p m to a
 * list whose smallest shared count so far is @p low, so the vector
 * path can finish its tail here.
 */
template <bool LastLine>
void
startListScalar(const std::uint32_t *__restrict ids,
                const std::uint32_t *__restrict next_use, std::size_t n,
                std::uint32_t prev,
                const std::uint32_t *__restrict block_sets,
                const std::uint8_t *__restrict block_shared, LaneList &list,
                std::size_t i = 0, std::size_t m = 0,
                std::uint8_t low = kNoShared)
{
    std::uint32_t *const __restrict out_ids = list.ids.data();
    std::uint32_t *const __restrict out_sets = list.sets.data();
    std::uint32_t *const __restrict out_next = list.next.data();
    std::uint8_t *const __restrict out_shared = list.shared.data();
    std::uint8_t *const __restrict out_same = list.same.data();
    for (; i < n; ++i) {
        // Written unconditionally and kept by advancing m: a within-run
        // entry is overwritten by the next run start.
        const std::uint32_t id = ids[i];
        const std::uint8_t bits = block_shared[id];
        const bool start = id != prev;
        out_ids[m] = id;
        out_sets[m] = block_sets[id];
        out_next[m] = next_use[i];
        out_shared[m] = bits;
        if constexpr (!LastLine)
            out_same[m] = !start;
        low = std::min<std::uint8_t>(low, !LastLine || start ? bits
                                                               : kNoShared);
        m += !LastLine || start;
        prev = id;
    }
    list.size = m;
    list.minShared = low;
}

/** Drop the entries of @p list whose block is alone in its set at 2^@p
 * k sets, in place, from entry @p j on (kept ones move to @p m, the
 * smallest kept count so far being @p low). */
template <bool LastLine>
void
keepSharedAtScalar(LaneList &list, unsigned k, std::size_t j = 0,
                   std::size_t m = 0, std::uint8_t low = kNoShared)
{
    std::uint32_t *const __restrict ids = list.ids.data();
    std::uint32_t *const __restrict sets = list.sets.data();
    std::uint32_t *const __restrict next = list.next.data();
    std::uint8_t *const __restrict shared = list.shared.data();
    std::uint8_t *const __restrict same = list.same.data();
    for (; j < list.size; ++j) {
        // m <= j: each entry moves down or stays.
        const std::uint8_t bits = shared[j];
        const bool keep = bits >= k;
        ids[m] = ids[j];
        sets[m] = sets[j];
        next[m] = next[j];
        shared[m] = bits;
        if constexpr (!LastLine)
            same[m] = same[j];
        low = std::min<std::uint8_t>(low, keep ? bits : kNoShared);
        m += keep;
    }
    list.size = m;
    list.minShared = low;
}

#if DYNEX_KERNEL_HAVE_AVX2
/** kPackLanes[mask] lists the lanes of mask's set bits in order, 3
 * bits a lane: the permutation that left-packs them. */
constexpr std::array<std::uint32_t, 256> kPackLanes = [] {
    std::array<std::uint32_t, 256> lanes{};
    for (unsigned mask = 0; mask < 256; ++mask) {
        unsigned slot = 0;
        for (unsigned lane = 0; lane < 8; ++lane)
            if ((mask >> lane) & 1)
                lanes[mask] |= lane << (3 * slot++);
    }
    return lanes;
}();

__attribute__((target("avx2"))) inline __m256i
packPermutation(unsigned mask)
{
    return _mm256_and_si256(
        _mm256_srlv_epi32(_mm256_set1_epi32(static_cast<int>(
                              kPackLanes[mask])),
                          _mm256_setr_epi32(0, 3, 6, 9, 12, 15, 18, 21)),
        _mm256_set1_epi32(7));
}

/** Store the low bytes of eight 32-bit lanes (each below 256). */
__attribute__((target("avx2"))) inline void
storeBytes(std::uint8_t *out, __m256i lanes)
{
    const __m128i words = _mm_packus_epi32(
        _mm256_castsi256_si128(lanes), _mm256_extracti128_si256(lanes, 1));
    _mm_storel_epi64(reinterpret_cast<__m128i *>(out),
                     _mm_packus_epi16(words, words));
}

__attribute__((target("avx2"))) inline std::uint8_t
minLane(__m256i lanes)
{
    __m128i low = _mm_min_epu32(_mm256_castsi256_si128(lanes),
                                _mm256_extracti128_si256(lanes, 1));
    low = _mm_min_epu32(low, _mm_shuffle_epi32(low, 0x4e));
    low = _mm_min_epu32(low, _mm_shuffle_epi32(low, 0xb1));
    return static_cast<std::uint8_t>(_mm_cvtsi128_si32(low));
}

/** startListScalar eight references at a time: gathered set words and
 * shared counts, with run starts left-packed under @p LastLine.
 * @pre every id is below 2^31: the gathers' indices are signed. */
template <bool LastLine>
__attribute__((target("avx2"))) void
startListAvx2(const std::uint32_t *ids, const std::uint32_t *next_use,
              std::size_t n, std::uint32_t prev,
              const std::uint32_t *block_sets,
              const std::uint8_t *block_shared, LaneList &list)
{
    if (n == 0) {
        startListScalar<LastLine>(ids, next_use, n, prev, block_sets,
                                  block_shared, list);
        return;
    }
    const int *const set_table = reinterpret_cast<const int *>(block_sets);
    const int *const shared_table =
        reinterpret_cast<const int *>(block_shared);
    const __m256i byte = _mm256_set1_epi32(0xff);
    const __m256i none = _mm256_set1_epi32(kNoShared);
    // Entry 0 compares with the carried-in id; the vector loop then
    // compares each id with the one before it in the chunk.
    const bool first = ids[0] != prev;
    std::size_t m = !LastLine || first;
    __m256i low = _mm256_set1_epi32(
        m ? block_shared[ids[0]] : kNoShared);
    list.ids[0] = ids[0];
    list.sets[0] = block_sets[ids[0]];
    list.next[0] = next_use[0];
    list.shared[0] = block_shared[ids[0]];
    if constexpr (!LastLine)
        list.same[0] = !first;
    std::size_t i = 1;
    for (; i + 8 <= n; i += 8) {
        const __m256i cur = _mm256_loadu_si256(
            reinterpret_cast<const __m256i *>(ids + i));
        const __m256i same = _mm256_cmpeq_epi32(
            cur, _mm256_loadu_si256(
                     reinterpret_cast<const __m256i *>(ids + i - 1)));
        __m256i sets = _mm256_i32gather_epi32(set_table, cur, 4);
        __m256i shared = _mm256_and_si256(
            _mm256_i32gather_epi32(shared_table, cur, 1), byte);
        __m256i next = _mm256_loadu_si256(
            reinterpret_cast<const __m256i *>(next_use + i));
        __m256i ids_out = cur;
        unsigned kept = 8;
        if constexpr (LastLine) {
            const unsigned starts =
                ~static_cast<unsigned>(_mm256_movemask_ps(
                    _mm256_castsi256_ps(same))) &
                0xff;
            const __m256i perm = packPermutation(starts);
            ids_out = _mm256_permutevar8x32_epi32(cur, perm);
            sets = _mm256_permutevar8x32_epi32(sets, perm);
            next = _mm256_permutevar8x32_epi32(next, perm);
            low = _mm256_min_epu32(low,
                                   _mm256_blendv_epi8(shared, none, same));
            shared = _mm256_permutevar8x32_epi32(shared, perm);
            kept = static_cast<unsigned>(std::popcount(starts));
        } else {
            low = _mm256_min_epu32(low, shared);
            storeBytes(list.same.data() + m,
                       _mm256_and_si256(same, _mm256_set1_epi32(1)));
        }
        _mm256_storeu_si256(reinterpret_cast<__m256i *>(list.ids.data() + m),
                            ids_out);
        _mm256_storeu_si256(
            reinterpret_cast<__m256i *>(list.sets.data() + m), sets);
        _mm256_storeu_si256(
            reinterpret_cast<__m256i *>(list.next.data() + m), next);
        storeBytes(list.shared.data() + m, shared);
        m += kept;
    }
    startListScalar<LastLine>(ids, next_use, n, ids[i - 1], block_sets,
                              block_shared, list, i, m, minLane(low));
}

/** keepSharedAtScalar eight entries at a time, left-packing the kept
 * ones. @pre k >= 1. */
template <bool LastLine>
__attribute__((target("avx2"))) void
keepSharedAtAvx2(LaneList &list, unsigned k)
{
    const __m256i floor = _mm256_set1_epi32(static_cast<int>(k) - 1);
    const __m256i none = _mm256_set1_epi32(kNoShared);
    __m256i low = none;
    std::size_t m = 0, j = 0;
    for (; j + 8 <= list.size; j += 8) {
        const __m256i shared = _mm256_cvtepu8_epi32(_mm_loadl_epi64(
            reinterpret_cast<const __m128i *>(list.shared.data() + j)));
        const __m256i keep = _mm256_cmpgt_epi32(shared, floor);
        const unsigned kept = static_cast<unsigned>(
            _mm256_movemask_ps(_mm256_castsi256_ps(keep)));
        const __m256i perm = packPermutation(kept);
        // Eight loads before any store: m <= j, so the stores only
        // cover entries already read.
        const __m256i ids = _mm256_loadu_si256(
            reinterpret_cast<const __m256i *>(list.ids.data() + j));
        const __m256i sets = _mm256_loadu_si256(
            reinterpret_cast<const __m256i *>(list.sets.data() + j));
        const __m256i next = _mm256_loadu_si256(
            reinterpret_cast<const __m256i *>(list.next.data() + j));
        __m256i same;
        if constexpr (!LastLine)
            same = _mm256_cvtepu8_epi32(_mm_loadl_epi64(
                reinterpret_cast<const __m128i *>(list.same.data() + j)));
        low = _mm256_min_epu32(low, _mm256_blendv_epi8(none, shared, keep));
        _mm256_storeu_si256(reinterpret_cast<__m256i *>(list.ids.data() + m),
                            _mm256_permutevar8x32_epi32(ids, perm));
        _mm256_storeu_si256(
            reinterpret_cast<__m256i *>(list.sets.data() + m),
            _mm256_permutevar8x32_epi32(sets, perm));
        _mm256_storeu_si256(
            reinterpret_cast<__m256i *>(list.next.data() + m),
            _mm256_permutevar8x32_epi32(next, perm));
        storeBytes(list.shared.data() + m,
                   _mm256_permutevar8x32_epi32(shared, perm));
        if constexpr (!LastLine)
            storeBytes(list.same.data() + m,
                       _mm256_permutevar8x32_epi32(same, perm));
        m += static_cast<unsigned>(std::popcount(kept));
    }
    keepSharedAtScalar<LastLine>(list, k, j, m, minLane(low));
}
#endif

/** Start @p list from one chunk (startListScalar), on @p isa. */
template <bool LastLine>
void
startList(KernelIsa isa, const std::uint32_t *ids,
          const std::uint32_t *next_use, std::size_t n, std::uint32_t prev,
          const std::uint32_t *block_sets, const std::uint8_t *block_shared,
          LaneList &list)
{
#if DYNEX_KERNEL_HAVE_AVX2
    if (isa == KernelIsa::Avx2) {
        startListAvx2<LastLine>(ids, next_use, n, prev, block_sets,
                                block_shared, list);
        return;
    }
#endif
    (void)isa;
    startListScalar<LastLine>(ids, next_use, n, prev, block_sets,
                              block_shared, list);
}

/** Drop the entries of @p list whose block is alone in its set at 2^@p
 * k sets, on @p isa; free when none is. */
template <bool LastLine>
void
keepSharedAt(KernelIsa isa, LaneList &list, unsigned k)
{
    if (list.minShared >= k)
        return;
#if DYNEX_KERNEL_HAVE_AVX2
    if (isa == KernelIsa::Avx2) {
        keepSharedAtAvx2<LastLine>(list, k);
        return;
    }
#endif
    (void)isa;
    keepSharedAtScalar<LastLine>(list, k);
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
    /** log2 of the set count: blocks with fewer shared bits are alone
     * in their set. */
    unsigned setBits = 0;

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
        setBits = floorLog2(sets);
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
 * The lane updates are written without branches, because their
 * decisions are data-dependent and a branch mispredicts through
 * bypass-heavy legs: DE's Figure-1 arc comes from fig1Arc as a select
 * chain, the bypass/retain decisions are mask arithmetic, and each
 * tally is a named counter (an indexed ++cnt[arc] would force them to
 * memory) folded into the leg once per chunk. GCC 12 -O3 keeps that
 * form for the DM and optimal lanes only: in the Release object,
 * chunk<1,*> and chunk<4,true> have 2 conditional jumps (the loop) and
 * chunk<4,false> 3 (the loop and its within-run skip). For DE it turns
 * fig1Arc back into a compare-and-branch tree (cold? hit? h? sticky?),
 * so chunk<2,*> has 7 conditional jumps, the fused chunk<7,true> 6 and
 * chunk<7,false> 8, and it keeps the arc tallies in stack slots (addq
 * $1 to memory) rather than registers. chunk<1,*> and chunk<2,*> do
 * not depend on LastLine, and GCC folds each pair into one body.
 *
 * DE's h[x] is one byte per distinct block, read once and written
 * back unconditionally. A packed bit per block would make every
 * update a read-modify-write of a word shared with the neighbouring
 * blocks, and sequential code touches neighbours back to back, so
 * each reference would wait on the previous one's store through
 * store-to-load forwarding; with bytes, only a repeat of the same
 * block carries a dependence.
 *
 * The loop sees only a LaneList: the references whose outcome is not
 * closed form at the leg's size. The list drops references rather than
 * masking them; a masked within-run no-op cost more than the branch it
 * replaced.
 *
 * @tparam LastLine DE's last-line mode. With it the list holds run
 *         starts only, so no lane tests same[i]; without it the
 *         optimal model, which always uses the last-line register,
 *         skips the within-run entries itself, and the conventional
 *         model never does.
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
                  de_override = 0, de_bypassed = 0;
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
            const std::uint32_t t = de_tags[set];
            const std::uint8_t s = de_sticky[set];
            const bool h = hit_last[id];
            const FsmEvent arc = fig1Arc(t != kNoBlock, t == id, s == 0, h);
            const bool bypass = arc == FsmEvent::Bypass;
            de_cold += arc == FsmEvent::ColdFill;
            de_hit += arc == FsmEvent::Hit;
            de_unsticky += arc == FsmEvent::ReplaceUnsticky;
            de_override += arc == FsmEvent::ReplaceHitLast;
            de_bypassed += bypass;
            // Bypass keeps the line and decays sticky; every other arc
            // installs the block at full stickiness.
            const std::uint32_t bmask =
                0 - static_cast<std::uint32_t>(bypass);
            de_tags[set] = (t & bmask) | (id & ~bmask);
            de_sticky[set] =
                bypass ? static_cast<std::uint8_t>(s - 1) : sticky_max;
            // h[x] := 1 on fill/hit/unsticky replace, consumed (:= 0)
            // on a hit-last override, rewritten unchanged on bypass --
            // exactly exclusionStep.
            hit_last[id] = bypass ? h : arc != FsmEvent::ReplaceHitLast;
        }

        if constexpr ((Models & kOpt) != 0) {
            if (!LastLine && same[i]) {
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

/**
 * Add the closed-form part of @p leg's tallies: the references its
 * lanes never saw. With B, R and S the blocks, references and run
 * starts alone in their set at the leg's size, and W the within-run
 * references of the other blocks:
 *  - DM: B cold fills and R - B hits (plus W with the last-line
 *    register, which keeps W out of every lane: the previous
 *    reference installed the block in DM too);
 *  - DE: B ColdFill arcs, then S - B Hit arcs and R - S last-line hits
 *    with the register (plus W), or R - B Hit arcs without it;
 *  - optimal: B cold fills, S - B hits, R - S last-line hits (plus W
 *    with the register; without it the lane counts W itself).
 * @return the leg's references resolved here.
 */
Count
addClosedForm(KernelLeg &leg, const SetSharing &sharing, Count refs,
              bool last_line)
{
    const SetSharing::Tally &alone = sharing.privateAt(leg.setBits);
    const Count b = alone.blocks, r = alone.refs, s = alone.runStarts;
    const Count w =
        last_line ? (refs - sharing.runStarts()) - (r - s) : 0;
    leg.dmCold += b;
    leg.dmHits += r - b + w;
    leg.deCnt[0] += b;
    leg.deCnt[1] += (last_line ? s : r) - b;
    leg.deLlHits += last_line ? r - s + w : 0;
    leg.optCold += b;
    leg.optHits += s - b;
    leg.optLlHits += r - s + w;
    return r + w;
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
    for (std::size_t e = 0; e < 5; ++e)
        r.deEvents.byEvent[e] = leg.deCnt[e];
    return r;
}

/**
 * Stream @p artifact through every non-null leg once, in chunks. Each
 * chunk's LaneList starts once (run starts only with the last-line
 * register) and is refined in place leg by leg in ascending set count,
 * so each leg's lanes see only the references that are not closed
 * form at its size.
 *
 * Observability: per-chunk-per-model timing under a metrics collector
 * (never per reference), chunk and pass spans under a tracer,
 * trace-unit progress (the chunk serves every leg), and one
 * ReplayChunks count per chunk. With none installed the cost is three
 * null checks per chunk.
 */
template <bool LastLine>
void
runKernelPass(const ReplayArtifact &artifact, const std::string &label,
              std::vector<std::unique_ptr<KernelLeg>> &legs,
              std::uint8_t sticky_max)
{
    obs::MetricsCollector *const metrics = obs::activeMetrics();
    obs::Tracer *const tracer = obs::Tracer::active();
    obs::ProgressBar *const progress = obs::ProgressBar::active();

    std::vector<KernelLeg *> ascending;
    for (const auto &leg : legs)
        if (leg)
            ascending.push_back(leg.get());
    std::stable_sort(ascending.begin(), ascending.end(),
                     [](const KernelLeg *a, const KernelLeg *b) {
                         return a->setBits < b->setBits;
                     });
    LaneList list(LastLine);
    const PackedTraceView &view = artifact.view();
    // The AVX2 gathers index with signed 32-bit lanes.
    const KernelIsa isa =
        view.distinctBlocks() <= (std::uint64_t{1} << 31)
            ? kernelDispatchIsa()
            : KernelIsa::Scalar;

    const std::uint64_t pass_start = tracer ? tracer->nowNs() : 0;
    const std::uint32_t *block_sets = view.blockSetWords();
    const std::uint8_t *block_shared = artifact.sharing().sharedLowBits();
    const std::uint32_t *ids = view.ids();
    const std::uint32_t *next_use = artifact.index().ticks();
    const std::size_t n = view.size();
    std::uint32_t prev_id = kNoBlock;
    for (std::size_t base = 0; base < n;
         base += detail::kBatchChunkRefs) {
        const std::size_t end =
            std::min(n, base + detail::kBatchChunkRefs);
        const std::size_t len = end - base;
        startList<LastLine>(isa, ids + base, next_use + base, len, prev_id,
                            block_sets, block_shared, list);
        prev_id = ids[end - 1];

        const std::uint64_t chunk_start = tracer ? tracer->nowNs() : 0;
        for (KernelLeg *const leg : ascending) {
            keepSharedAt<LastLine>(isa, list, leg->setBits);
            const std::uint32_t *const sets = list.sets.data();
            const std::uint32_t *const lids = list.ids.data();
            const std::uint32_t *const next = list.next.data();
            const std::uint8_t *const same = list.same.data();
            if (!metrics) {
                chunk<kAll, LastLine>(*leg, sets, lids, next, same,
                                      list.size, sticky_max);
                continue;
            }
            // Per-model timing: each model runs as its own chunk
            // instantiation, so its time is measured, not apportioned.
            const std::uint64_t t0 = obs::monotonicNs();
            chunk<kDm, LastLine>(*leg, sets, lids, next, same, list.size,
                                 sticky_max);
            const std::uint64_t t1 = obs::monotonicNs();
            chunk<kDe, LastLine>(*leg, sets, lids, next, same, list.size,
                                 sticky_max);
            const std::uint64_t t2 = obs::monotonicNs();
            chunk<kOpt, LastLine>(*leg, sets, lids, next, same, list.size,
                                  sticky_max);
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

    Count closed_form = 0;
    for (KernelLeg *const leg : ascending)
        closed_form += addClosedForm(*leg, artifact.sharing(), n, LastLine);
    if (metrics)
        metrics->add(obs::Counter::KernelClosedFormRefs, closed_form);
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
      setSharing(packed), nextUse(packed, NextUseMode::RunStart)
{
}

std::shared_ptr<const ReplayArtifact>
buildReplayArtifact(const Trace &trace, std::uint32_t line_bytes,
                    const std::string &label, TraceLink link)
{
    obs::MetricsCollector *const metrics = obs::activeMetrics();
    obs::Tracer *const tracer = obs::Tracer::active();
    const std::uint64_t metrics_t0 = metrics ? obs::monotonicNs() : 0;
    const std::uint64_t tracer_t0 = tracer ? tracer->nowNs() : 0;

    std::shared_ptr<const ReplayArtifact> artifact(new ReplayArtifact(
        trace.name(), link == TraceLink::Keep ? &trace : nullptr,
        PackedTraceView(trace, line_bytes)));

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

    if (de_config.useLastLine)
        runKernelPass<true>(artifact, label, legs, de_config.stickyMax);
    else
        runKernelPass<false>(artifact, label, legs, de_config.stickyMax);

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
    Count arcs = 0;
    bool bounded = true;
    for (const Count arc : triad.deEvents.byEvent) {
        bounded = bounded && arc <= triad.de.accesses;
        arcs += arc;
    }
    if (!bounded || !sumsTo(arcs, de_last_line_hits, triad.de.accesses))
        return brokenIdentity("de",
                              "Figure-1 arcs = accesses - last-line hits",
                              arcs, de_last_line_hits, triad.de.accesses);
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

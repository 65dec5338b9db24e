#include "trace/packed_view.h"

#include <algorithm>
#include <utility>

#include "util/bitops.h"
#include "util/logging.h"

namespace dynex
{

namespace
{

constexpr std::uint32_t kNoId = ~std::uint32_t{0};

} // namespace

PackedTraceView::PackedTraceView(std::uint32_t block_bytes,
                                 std::size_t expected_refs)
    : sentinelId(kNoId), blockBytesValue(block_bytes)
{
    DYNEX_ASSERT(isPowerOfTwo(block_bytes),
                 "block size must be a power of two, got ", block_bytes);
    blockShift = floorLog2(block_bytes);
    denseIds.reserve(expected_refs);
    // Start near the typical distinct-block count (~n/16); append()
    // doubles the table at a 0.75 load factor.
    resizeHash(std::size_t{1}
               << ceilLog2(std::max<std::size_t>(256, expected_refs / 16)));
}

PackedTraceView::PackedTraceView(const Trace &trace,
                                 std::uint32_t block_bytes)
    : PackedTraceView(block_bytes, trace.size())
{
    append(trace.records());
    finish();
}

void
PackedTraceView::resizeHash(std::size_t count)
{
    // kAddrInvalid doubles as the empty-slot marker.
    std::vector<Slot> old(count, Slot{kAddrInvalid, 0});
    old.swap(slots);
    const std::size_t mask = slots.size() - 1;
    indexShift = 64 - floorLog2(slots.size());
    for (const Slot &entry : old) {
        if (entry.key == kAddrInvalid)
            continue;
        std::size_t at = mixHash(entry.key) >> indexShift;
        while (slots[at].key != kAddrInvalid)
            at = (at + 1) & mask;
        slots[at] = entry;
    }
}

void
PackedTraceView::append(std::span<const MemRef> refs)
{
    DYNEX_ASSERT(!slots.empty(), "append() after finish()");
    DYNEX_ASSERT(denseIds.size() + refs.size() <
                     (std::uint64_t{1} << 32),
                 "a packed view numbers blocks with 32-bit ids; the "
                 "trace has ", denseIds.size() + refs.size(),
                 " references");
    const std::size_t base = denseIds.size();
    denseIds.resize(base + refs.size());
    std::uint32_t *const out = denseIds.data() + base;

    // Block -> id, open addressing with linear probes: the only block
    // hash of a replay artifact (NextUseIndex chains the ids). The
    // probe state lives in locals for the pass and is reloaded after
    // each growth.
    Slot *table = slots.data();
    std::size_t mask = slots.size() - 1;
    std::size_t limit = slots.size() - slots.size() / 4;
    std::size_t used = setWords.size() - (sentinelId != kNoId);
    for (std::size_t i = 0; i < refs.size(); ++i) {
        const Addr block = refs[i].addr >> blockShift;
        std::uint32_t id;
        if (block == kAddrInvalid) {
            // The empty-slot marker itself (addr near 2^64 at byte
            // granularity) gets a sidecar id.
            if (sentinelId == kNoId) {
                sentinelId = static_cast<std::uint32_t>(setWords.size());
                setWords.push_back(static_cast<std::uint32_t>(block));
            }
            id = sentinelId;
        } else {
            std::size_t at = mixHash(block) >> indexShift;
            while (table[at].key != kAddrInvalid && table[at].key != block)
                at = (at + 1) & mask;
            if (table[at].key == block) {
                id = table[at].id;
            } else {
                id = static_cast<std::uint32_t>(setWords.size());
                setWords.push_back(static_cast<std::uint32_t>(block));
                table[at] = {block, id};
                if (++used >= limit) {
                    resizeHash(slots.size() * 2);
                    table = slots.data();
                    mask = slots.size() - 1;
                    limit = slots.size() - slots.size() / 4;
                }
            }
        }
        out[i] = id;
    }
}

void
PackedTraceView::finish()
{
    std::vector<Slot>().swap(slots);
}

namespace
{

constexpr std::uint32_t
reverseBits(std::uint32_t x)
{
    x = ((x >> 1) & 0x55555555u) | ((x & 0x55555555u) << 1);
    x = ((x >> 2) & 0x33333333u) | ((x & 0x33333333u) << 2);
    x = ((x >> 4) & 0x0f0f0f0fu) | ((x & 0x0f0f0f0fu) << 4);
    x = ((x >> 8) & 0x00ff00ffu) | ((x & 0x00ff00ffu) << 8);
    return (x >> 16) | (x << 16);
}

} // namespace

SetSharing::SetSharing(const PackedTraceView &view)
    : shared(view.distinctBlocks() + 3, 0)
{
    // Sorted by reversed set word, each block's longest common run of
    // low bits with any other block is with a sorted neighbour. The
    // high half carries the reversed word and the low half the id.
    // One scratch array of two words per block: the sort's keys and
    // its radix buffer, then the per-block counts below.
    const std::size_t blocks = view.distinctBlocks();
    std::vector<std::uint64_t> scratch(2 * blocks);
    std::uint64_t *order = scratch.data();
    std::uint64_t *sorted = order + blocks;
    const std::uint32_t *const words = view.blockSetWords();
    for (std::uint32_t id = 0; id < blocks; ++id)
        order[id] = std::uint64_t{reverseBits(words[id])} << 32 | id;
    // An LSD radix sort on the high half, 11 bits a pass: a comparison
    // sort of a 4 B-line view's distinct blocks cost more than the
    // next-use index.
    for (unsigned shift = 32; shift < 64; shift += 11) {
        std::size_t at[std::size_t{1} << 11] = {};
        for (std::size_t j = 0; j < blocks; ++j)
            ++at[(order[j] >> shift) & 0x7ff];
        std::size_t sum = 0;
        for (std::size_t &slot : at)
            sum += std::exchange(slot, sum);
        for (std::size_t j = 0; j < blocks; ++j)
            sorted[at[(order[j] >> shift) & 0x7ff]++] = order[j];
        std::swap(order, sorted);
    }
    const auto common = [](std::uint64_t a, std::uint64_t b) {
        return static_cast<std::uint8_t>(std::countl_zero(
            static_cast<std::uint32_t>((a ^ b) >> 32)));
    };
    for (std::size_t j = 0; j + 1 < blocks; ++j) {
        const std::uint8_t bits = common(order[j], order[j + 1]);
        std::uint8_t &left = shared[static_cast<std::uint32_t>(order[j])];
        left = std::max(left, bits);
        shared[static_cast<std::uint32_t>(order[j + 1])] = bits;
    }

    // Each block's references (low half) and run starts (high half),
    // in two copies that even and odd positions alternate between, so
    // a run of one block does not chain every increment on the last.
    // Counting per block and folding into the histograms afterwards
    // keeps the per-reference increments off 33 shared buckets.
    const std::uint32_t *const ids = view.ids();
    std::fill(scratch.begin(), scratch.end(), 0);
    std::uint64_t *const counts = scratch.data();
    std::uint32_t prev = kNoId;
    for (std::size_t i = 0; i < view.size(); ++i) {
        const std::uint32_t id = ids[i];
        counts[2 * id + (i & 1)] +=
            1 + (std::uint64_t{id != prev} << 32);
        prev = id;
    }
    Tally bucket[kBuckets];
    for (std::size_t id = 0; id < blocks; ++id) {
        // Both halves stay below 2^32: a view holds fewer references.
        const std::uint64_t both = counts[2 * id] + counts[2 * id + 1];
        Tally &into = bucket[shared[id]];
        ++into.blocks;
        into.refs += static_cast<std::uint32_t>(both);
        into.runStarts += both >> 32;
    }
    for (unsigned k = 0; k < kBuckets; ++k) {
        below[k + 1].blocks = below[k].blocks + bucket[k].blocks;
        below[k + 1].refs = below[k].refs + bucket[k].refs;
        below[k + 1].runStarts = below[k].runStarts + bucket[k].runStarts;
    }
}

} // namespace dynex

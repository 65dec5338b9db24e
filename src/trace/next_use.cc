#include "trace/next_use.h"

#include <algorithm>
#include <unordered_map>

#include "util/bitops.h"
#include "util/logging.h"

namespace dynex
{

NextUseIndex::NextUseIndex(const Trace &trace, std::uint64_t block_size,
                           NextUseMode mode, NextUseScratch *scratch)
    : blockBytes(block_size), useMode(mode)
{
    DYNEX_ASSERT(isPowerOfTwo(block_size),
                 "block size must be a power of two, got ", block_size);
    if (scratch) {
        build(trace, *scratch);
    } else {
        NextUseScratch local;
        build(trace, local);
    }
}

void
NextUseIndex::build(const Trace &trace, NextUseScratch &scratch)
{
    const unsigned shift = floorLog2(blockBytes);
    const std::size_t n = trace.size();
    next.resize(n);

    // Start the table near the typical distinct-block count (traces
    // revisit blocks heavily, so distinct blocks ~ n/16) and grow by
    // doubling when a trace proves unusually diverse — the doubling is
    // amortized O(n), and a compact table keeps the wipe cheap and the
    // probes cache-resident. A reused scratch keeps its largest
    // capacity across builds.
    using Slot = NextUseScratch::Slot;
    constexpr Slot kEmptySlot{kAddrInvalid, 0};
    const std::size_t wanted =
        std::size_t{1} << ceilLog2(std::max<std::size_t>(256, n / 16));
    if (scratch.slots.size() < wanted)
        scratch.slots.assign(wanted, kEmptySlot);
    else
        std::fill(scratch.slots.begin(), scratch.slots.end(),
                  kEmptySlot);
    Slot *slots = scratch.slots.data();
    std::size_t capacity = scratch.slots.size();
    std::size_t mask = capacity - 1;
    unsigned index_shift = 64 - floorLog2(capacity);
    std::size_t used = 0;
    std::size_t limit = capacity - capacity / 4; // 0.75 load factor

    const auto grow = [&] {
        std::vector<Slot> old(capacity * 2, kEmptySlot);
        old.swap(scratch.slots);
        slots = scratch.slots.data();
        capacity *= 2;
        mask = capacity - 1;
        index_shift = 64 - floorLog2(capacity);
        limit = capacity - capacity / 4;
        for (const Slot &entry : old) {
            if (entry.key == kAddrInvalid)
                continue;
            std::size_t at = mixHash(entry.key) >> index_shift;
            while (slots[at].key != kAddrInvalid)
                at = (at + 1) & mask;
            slots[at] = entry;
        }
    };

    // kAddrInvalid doubles as the empty-slot marker, so a block that
    // happens to equal it (addr near 2^64 at byte granularity) gets a
    // dedicated sidecar instead of a table slot.
    Tick sentinel_tick = kTickInfinity;

    const MemRef *refs = trace.records().data();
    const bool any = useMode == NextUseMode::AnyReference;
    // The probe is a serialized random load; the pass knows every
    // future probe address, so fetch the slot line a few iterations
    // ahead and overlap the table latency with the scan. The previous
    // reference's block (this iteration's run-start comparand, the
    // next iteration's key) is carried instead of recomputed.
    constexpr std::size_t kPrefetchAhead = 8;
    Addr block = n ? refs[n - 1].addr >> shift : 0;
    for (std::size_t i = n; i-- > 0;) {
        if (i >= kPrefetchAhead) {
            const Addr ahead = refs[i - kPrefetchAhead].addr >> shift;
            __builtin_prefetch(&slots[mixHash(ahead) >> index_shift]);
        }
        const Addr prev_block =
            i > 0 ? refs[i - 1].addr >> shift : kAddrInvalid;
        const bool run_start = any || i == 0 || prev_block != block;

        if (block == kAddrInvalid) {
            next[i] = sentinel_tick;
            if (run_start)
                sentinel_tick = i;
            block = prev_block;
            continue;
        }

        // One probe chain serves both the lookup and the (conditional)
        // insert: it ends at the block's slot or the first empty one.
        std::size_t at = mixHash(block) >> index_shift;
        while (slots[at].key != kAddrInvalid && slots[at].key != block)
            at = (at + 1) & mask;

        if (slots[at].key == block) {
            next[i] = slots[at].tick;
            if (run_start)
                slots[at].tick = i;
        } else {
            next[i] = kTickInfinity;
            if (run_start) {
                slots[at] = {block, i};
                if (++used >= limit)
                    grow();
            }
        }
        block = prev_block;
    }
}

std::vector<Tick>
nextUseByMap(const Trace &trace, std::uint64_t block_size,
             NextUseMode mode)
{
    DYNEX_ASSERT(isPowerOfTwo(block_size),
                 "block size must be a power of two, got ", block_size);
    const unsigned shift = floorLog2(block_size);

    std::vector<Tick> next(trace.size(), kTickInfinity);
    std::unordered_map<Addr, Tick> upcoming;
    upcoming.reserve(trace.size() / 8 + 16);

    for (std::size_t i = trace.size(); i-- > 0;) {
        const Addr block = trace[i].addr >> shift;
        if (auto it = upcoming.find(block); it != upcoming.end())
            next[i] = it->second;

        const bool run_start =
            mode == NextUseMode::AnyReference || i == 0 ||
            (trace[i - 1].addr >> shift) != block;
        if (run_start)
            upcoming[block] = i;
    }
    return next;
}

} // namespace dynex

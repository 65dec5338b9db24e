#include "trace/packed_view.h"

#include <algorithm>

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

} // namespace dynex

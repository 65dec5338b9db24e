#include "trace/packed_view.h"

#include <algorithm>

#include "util/bitops.h"
#include "util/logging.h"

namespace dynex
{

PackedTraceView::PackedTraceView(const Trace &trace,
                                 std::uint32_t block_bytes)
    : blockBytesValue(block_bytes)
{
    DYNEX_ASSERT(isPowerOfTwo(block_bytes),
                 "block size must be a power of two, got ", block_bytes);
    const MemRef *refs = trace.records().data();
    const std::size_t n = trace.size();
    DYNEX_ASSERT(n < (std::uint64_t{1} << 32),
                 "a packed view numbers blocks with 32-bit ids; the "
                 "trace has ", n, " references");
    const unsigned shift = floorLog2(block_bytes);
    setWordArray.resize(n);
    denseIds.resize(n);

    // Block -> id, open addressing with linear probes: the only block
    // hash of a replay artifact (NextUseIndex chains the ids). Start
    // near the typical distinct-block count (~n/16) and double at a
    // 0.75 load factor.
    struct Slot
    {
        Addr key;
        std::uint32_t id;
    };
    constexpr Slot kEmptySlot{kAddrInvalid, 0};
    std::vector<Slot> slots(
        std::size_t{1} << ceilLog2(std::max<std::size_t>(256, n / 16)),
        kEmptySlot);
    std::size_t mask = slots.size() - 1;
    unsigned index_shift = 64 - floorLog2(slots.size());
    std::size_t limit = slots.size() - slots.size() / 4;

    const auto grow = [&] {
        std::vector<Slot> old(slots.size() * 2, kEmptySlot);
        old.swap(slots);
        mask = slots.size() - 1;
        index_shift = 64 - floorLog2(slots.size());
        limit = slots.size() - slots.size() / 4;
        for (const Slot &entry : old) {
            if (entry.key == kAddrInvalid)
                continue;
            std::size_t at = mixHash(entry.key) >> index_shift;
            while (slots[at].key != kAddrInvalid)
                at = (at + 1) & mask;
            slots[at] = entry;
        }
    };

    // kAddrInvalid doubles as the empty-slot marker, so a block equal
    // to it (addr near 2^64 at byte granularity) gets a sidecar id.
    constexpr std::uint32_t kNoId = ~std::uint32_t{0};
    std::uint32_t sentinel_id = kNoId;
    std::uint32_t next_id = 0;
    std::size_t used = 0;
    for (std::size_t i = 0; i < n; ++i) {
        const Addr block = refs[i].addr >> shift;
        setWordArray[i] = static_cast<std::uint32_t>(block);
        std::uint32_t id;
        if (block == kAddrInvalid) {
            if (sentinel_id == kNoId)
                sentinel_id = next_id++;
            id = sentinel_id;
        } else {
            std::size_t at = mixHash(block) >> index_shift;
            while (slots[at].key != kAddrInvalid &&
                   slots[at].key != block)
                at = (at + 1) & mask;
            if (slots[at].key == block) {
                id = slots[at].id;
            } else {
                id = next_id++;
                slots[at] = {block, id};
                if (++used >= limit)
                    grow();
            }
        }
        denseIds[i] = id;
    }
    distinct = next_id;
}

} // namespace dynex

#include "trace/next_use.h"

#include <unordered_map>

#include "util/bitops.h"
#include "util/logging.h"

namespace dynex
{

namespace
{

/** @p block_size as a view granularity: a power of two below 2^32. */
std::uint32_t
viewBlockBytes(std::uint64_t block_size)
{
    DYNEX_ASSERT(isPowerOfTwo(block_size) && block_size <= (1u << 31),
                 "block size must be a power of two below 2^32, got ",
                 block_size);
    return static_cast<std::uint32_t>(block_size);
}

} // namespace

NextUseIndex::NextUseIndex(const PackedTraceView &view, NextUseMode mode)
    : blockBytes(view.blockBytes()), useMode(mode)
{
    const std::uint32_t *ids = view.ids();
    const std::size_t n = view.size();
    next.resize(n);

    // last[id]: the upcoming qualifying position of block id, filled
    // in as the pass walks backwards. Ids are dense, so this flat
    // array replaces a block-keyed hash table.
    std::vector<std::uint32_t> last(view.distinctBlocks(), kNever);
    if (useMode == NextUseMode::AnyReference) {
        for (std::size_t i = n; i-- > 0;) {
            const std::uint32_t id = ids[i];
            next[i] = last[id];
            last[id] = static_cast<std::uint32_t>(i);
        }
        return;
    }
    // Within-run references leave last[id] unchanged. The store is
    // unconditional mask arithmetic: a compiler-chosen branch on the
    // run boundary mispredicts through 16- and 32-byte-line traces
    // (measured about 3x slower there).
    for (std::size_t i = n; i-- > 0;) {
        const std::uint32_t id = ids[i];
        const std::uint32_t upcoming = last[id];
        next[i] = upcoming;
        const std::uint32_t run_start =
            0 - static_cast<std::uint32_t>(i == 0 || ids[i - 1] != id);
        last[id] = (static_cast<std::uint32_t>(i) & run_start) |
                   (upcoming & ~run_start);
    }
}

NextUseIndex::NextUseIndex(const Trace &trace, std::uint64_t block_size,
                           NextUseMode mode)
    : NextUseIndex(PackedTraceView(trace, viewBlockBytes(block_size)),
                   mode)
{
}

std::vector<Tick>
NextUseIndex::values() const
{
    std::vector<Tick> ticks(next.size());
    for (std::size_t i = 0; i < next.size(); ++i)
        ticks[i] = nextUse(i);
    return ticks;
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

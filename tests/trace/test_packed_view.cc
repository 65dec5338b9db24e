/**
 * @file
 * Unit tests of the packed trace view: set words (the low 32 bits of
 * each block number at the view's granularity), and dense block ids
 * numbered in order of first appearance, including table growth and
 * the kAddrInvalid sidecar.
 */

#include <gtest/gtest.h>

#include <map>
#include <string>

#include "trace/packed_view.h"
#include "util/bitops.h"
#include "util/rng.h"

namespace dynex
{
namespace
{

/** ids()[i] == ids()[j] iff block(i) == block(j), ids numbered by
 * first appearance, and distinctBlocks() counts them: each id must
 * equal a std::map numbering of @p trace's block numbers, which is
 * one-to-one by construction. Every set word is its block's low 32
 * bits. */
void
expectDenseIds(const Trace &trace, const PackedTraceView &view)
{
    ASSERT_EQ(view.size(), trace.size());
    const unsigned shift = floorLog2(view.blockBytes());
    std::map<Addr, std::uint32_t> first;
    for (std::size_t i = 0; i < view.size(); ++i) {
        const Addr block = trace[i].addr >> shift;
        EXPECT_EQ(view.setWords()[i], static_cast<std::uint32_t>(block))
            << "ref " << i;
        const auto [it, inserted] = first.emplace(
            block, static_cast<std::uint32_t>(first.size()));
        EXPECT_EQ(view.ids()[i], it->second) << "ref " << i;
        ASSERT_LT(view.ids()[i], view.distinctBlocks()) << "ref " << i;
    }
    EXPECT_EQ(view.distinctBlocks(), first.size());
}

TEST(PackedView, BlocksAreAddressesShiftedToTheGranularity)
{
    Trace trace("words");
    for (const Addr addr : {0x100, 0x104, 0x10c, 0x200, 0x108})
        trace.append(ifetch(addr));
    const PackedTraceView view(trace, 16);
    ASSERT_EQ(view.size(), 5u);
    EXPECT_EQ(view.blockBytes(), 16u);
    const std::uint32_t expected[] = {0x10, 0x10, 0x10, 0x20, 0x10};
    for (std::size_t i = 0; i < 5; ++i)
        EXPECT_EQ(view.setWords()[i], expected[i]) << i;
    EXPECT_EQ(view.bytes(), 5u * 8);
}

TEST(PackedView, IdsNumberBlocksInOrderOfFirstAppearance)
{
    // c a c b a : c is block 0, a block 1, b block 2.
    Trace trace("order");
    for (const Addr addr : {0x300, 0x100, 0x304, 0x200, 0x100})
        trace.append(ifetch(addr));
    const PackedTraceView view(trace, 16);
    const std::uint32_t expected[] = {0, 1, 0, 2, 1};
    for (std::size_t i = 0; i < 5; ++i)
        EXPECT_EQ(view.ids()[i], expected[i]) << i;
    EXPECT_EQ(view.distinctBlocks(), 3u);
}

TEST(PackedView, IdsMatchIffBlocksMatchOnARandomTrace)
{
    // Four regions 2^44 bytes apart: blocks that agree in their low 32
    // bits must still get distinct ids.
    Rng rng(0x5eed);
    Trace trace("random");
    for (int i = 0; i < 20000; ++i)
        trace.append(load((rng.nextBelow(4) << 44) + 0x1000 +
                          4 * rng.nextBelow(3000)));
    for (const std::uint32_t line : {1u, 4u, 32u}) {
        SCOPED_TRACE("line " + std::to_string(line));
        expectDenseIds(trace, PackedTraceView(trace, line));
    }
}

TEST(PackedView, EmptyTraceHasNoBlocks)
{
    const Trace trace("empty");
    const PackedTraceView view(trace, 4);
    EXPECT_EQ(view.size(), 0u);
    EXPECT_EQ(view.distinctBlocks(), 0u);
}

TEST(PackedView, GrowsPastTheInitialTable)
{
    // The table starts at 256 slots and grows at 3/4 load, so 5000
    // distinct blocks (every reference new, then every one revisited
    // in reverse) force several doublings mid-pass.
    Trace trace("diverse");
    for (Addr b = 0; b < 5000; ++b)
        trace.append(ifetch(0x40000000 + 64 * b));
    for (Addr b = 5000; b-- > 0;)
        trace.append(ifetch(0x40000000 + 64 * b));
    const PackedTraceView view(trace, 64);
    EXPECT_EQ(view.distinctBlocks(), 5000u);
    for (std::size_t b = 0; b < 5000; ++b) {
        EXPECT_EQ(view.ids()[b], b);
        EXPECT_EQ(view.ids()[9999 - b], b);
    }
    expectDenseIds(trace, view);
}

TEST(PackedView, TheInvalidBlockGetsASidecarId)
{
    // At 1-byte granularity the top byte address is block kAddrInvalid,
    // the table's empty-slot marker; it still gets its own id, numbered
    // like any other block and distinct from its neighbours.
    Trace trace("top");
    for (const Addr addr : {Addr{0x10}, kAddrInvalid, kAddrInvalid - 1,
                            kAddrInvalid, Addr{0x10}, kAddrInvalid})
        trace.append(load(addr, 1));
    const PackedTraceView view(trace, 1);
    EXPECT_EQ(view.setWords()[1], 0xffffffffu);
    const std::uint32_t expected[] = {0, 1, 2, 1, 0, 1};
    for (std::size_t i = 0; i < 6; ++i)
        EXPECT_EQ(view.ids()[i], expected[i]) << i;
    EXPECT_EQ(view.distinctBlocks(), 3u);

    Trace first("top-first");
    first.append(load(kAddrInvalid, 1));
    first.append(load(kAddrInvalid, 1));
    first.append(load(0, 1));
    const PackedTraceView lead(first, 1);
    EXPECT_EQ(lead.ids()[0], 0u);
    EXPECT_EQ(lead.ids()[1], 0u);
    EXPECT_EQ(lead.ids()[2], 1u);
    EXPECT_EQ(lead.distinctBlocks(), 2u);
}

} // namespace
} // namespace dynex

/** @file Unit tests of MappedPages, the owner of one anonymous
 * mapping. */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <limits>
#include <new>
#include <utility>

#include "util/mapped_pages.h"

namespace dynex
{
namespace
{

TEST(MappedPages, PagesArriveZeroFilledAndWritable)
{
    const MappedPages pages(3 * 4096 + 5);
    ASSERT_NE(pages.data(), nullptr);
    EXPECT_EQ(pages.size(), 3u * 4096 + 5);
    EXPECT_EQ(reinterpret_cast<std::uintptr_t>(pages.data()) % 4096, 0u);
    EXPECT_TRUE(std::all_of(pages.data(), pages.data() + pages.size(),
                            [](std::byte b) { return b == std::byte{0}; }));
    std::fill(pages.data(), pages.data() + pages.size(), std::byte{0x5a});
    EXPECT_EQ(pages.data()[pages.size() - 1], std::byte{0x5a});
}

TEST(MappedPages, MovesHandOverTheMapping)
{
    MappedPages from(4096);
    std::byte *const base = from.data();
    base[0] = std::byte{7};
    MappedPages to(std::move(from));
    EXPECT_EQ(from.data(), nullptr);
    EXPECT_EQ(from.size(), 0u);
    EXPECT_EQ(to.data(), base);
    EXPECT_EQ(to.data()[0], std::byte{7});

    // Assigning over a live mapping unmaps the old one and takes the
    // new one.
    to = MappedPages(2 * 4096);
    EXPECT_EQ(to.size(), 2u * 4096);
    EXPECT_EQ(to.data()[0], std::byte{0});
    to = MappedPages();
    EXPECT_EQ(to.data(), nullptr);
    EXPECT_EQ(to.size(), 0u);
}

TEST(MappedPages, ARefusedMappingIsAFailedAllocation)
{
    // More than any address space holds: the kernel refuses it at
    // every overcommit setting, and no page is touched.
    EXPECT_THROW(MappedPages(std::numeric_limits<std::size_t>::max() / 2),
                 std::bad_alloc);
}

} // namespace
} // namespace dynex

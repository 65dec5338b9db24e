/** @file Unit tests of the CRC-32 helper. */

#include <gtest/gtest.h>

#include <cstring>
#include <string>
#include <vector>

#include "util/crc32.h"
#include "util/rng.h"

namespace dynex
{
namespace
{

TEST(Crc32, KnownCheckValue)
{
    // The standard CRC-32/IEEE check vector.
    const char *check = "123456789";
    EXPECT_EQ(crc32Of(check, std::strlen(check)), 0xcbf43926u);
}

TEST(Crc32, EmptyBufferIsZero)
{
    EXPECT_EQ(crc32Of("", 0), 0u);
}

TEST(Crc32, IncrementalMatchesOneShot)
{
    const std::string data =
        "The quick brown fox jumps over the lazy dog";
    const std::uint32_t whole = crc32Of(data.data(), data.size());
    // Fold the same bytes in awkward chunk sizes.
    for (const std::size_t chunk : {1u, 3u, 7u, 16u, 64u}) {
        std::uint32_t crc = crc32Init();
        for (std::size_t at = 0; at < data.size(); at += chunk)
            crc = crc32Update(crc, data.data() + at,
                              std::min(chunk, data.size() - at));
        EXPECT_EQ(crc32Final(crc), whole) << "chunk " << chunk;
    }
}

TEST(Crc32, DetectsSingleBitFlips)
{
    std::string data(256, '\0');
    for (std::size_t i = 0; i < data.size(); ++i)
        data[i] = static_cast<char>(i * 7 + 3);
    const std::uint32_t clean = crc32Of(data.data(), data.size());
    for (const std::size_t at : {0u, 17u, 128u, 255u}) {
        std::string mutated = data;
        mutated[at] ^= 0x10;
        EXPECT_NE(crc32Of(mutated.data(), mutated.size()), clean)
            << "flip at " << at;
    }
}

/** The plain bytewise CRC-32, one table lookup per byte: the
 * definition the sliced implementation must reproduce. */
std::uint32_t
referenceCrc32Update(std::uint32_t crc, const unsigned char *bytes,
                     std::size_t size)
{
    static const std::vector<std::uint32_t> table = [] {
        std::vector<std::uint32_t> t(256);
        for (std::uint32_t i = 0; i < 256; ++i) {
            std::uint32_t c = i;
            for (int bit = 0; bit < 8; ++bit)
                c = (c >> 1) ^ ((c & 1) ? 0xedb8'8320u : 0);
            t[i] = c;
        }
        return t;
    }();
    for (std::size_t i = 0; i < size; ++i)
        crc = table[(crc ^ bytes[i]) & 0xffu] ^ (crc >> 8);
    return crc;
}

TEST(Crc32, MatchesTheBytewiseReferenceAtEveryLengthAndAlignment)
{
    Rng rng(0xc3c3);
    std::vector<unsigned char> data(4099 + 8);
    for (auto &byte : data)
        byte = static_cast<unsigned char>(rng.next());
    for (int trial = 0; trial < 400; ++trial) {
        const auto size = static_cast<std::size_t>(rng.nextBelow(4100));
        for (std::size_t align = 0; align < 8; ++align) {
            const unsigned char *at = data.data() + align;
            EXPECT_EQ(crc32Update(crc32Init(), at, size),
                      referenceCrc32Update(crc32Init(), at, size))
                << "size " << size << " alignment " << align;
        }
    }
    // Every short length, where the tail loop does all the work.
    for (std::size_t size = 0; size <= 64; ++size)
        EXPECT_EQ(crc32Of(data.data() + 3, size),
                  crc32Final(referenceCrc32Update(crc32Init(),
                                                  data.data() + 3, size)))
            << "size " << size;
}

TEST(Crc32, IncrementalChunksMatchTheBytewiseReference)
{
    Rng rng(0x5eed);
    std::vector<unsigned char> data(4099);
    for (auto &byte : data)
        byte = static_cast<unsigned char>(rng.next());
    const std::uint32_t whole =
        crc32Final(referenceCrc32Update(crc32Init(), data.data(),
                                        data.size()));
    for (int trial = 0; trial < 100; ++trial) {
        std::uint32_t crc = crc32Init();
        for (std::size_t at = 0; at < data.size();) {
            const std::size_t chunk = std::min<std::size_t>(
                1 + rng.nextBelow(37), data.size() - at);
            crc = crc32Update(crc, data.data() + at, chunk);
            at += chunk;
        }
        EXPECT_EQ(crc32Final(crc), whole) << "trial " << trial;
    }
}

} // namespace
} // namespace dynex

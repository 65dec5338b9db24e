#include "util/crc32.h"

#include <array>

namespace dynex
{

namespace
{

/** Slicing-by-8 tables for the reflected polynomial: table[0] is the
 * bytewise table, and table[k][b] is the CRC of byte b followed by k
 * zero bytes, so eight table lookups fold eight bytes at once. */
using CrcTables = std::array<std::array<std::uint32_t, 256>, 8>;

constexpr CrcTables
makeTables()
{
    CrcTables t{};
    for (std::uint32_t i = 0; i < 256; ++i) {
        std::uint32_t c = i;
        for (int bit = 0; bit < 8; ++bit)
            c = (c >> 1) ^ ((c & 1) ? 0xedb8'8320u : 0);
        t[0][i] = c;
    }
    for (std::size_t k = 1; k < 8; ++k)
        for (std::uint32_t i = 0; i < 256; ++i)
            t[k][i] = (t[k - 1][i] >> 8) ^ t[0][t[k - 1][i] & 0xffu];
    return t;
}

constexpr CrcTables kTables = makeTables();

/** Little-endian 32-bit load from an unaligned address. */
std::uint32_t
loadLe32(const unsigned char *p)
{
    return static_cast<std::uint32_t>(p[0]) |
           static_cast<std::uint32_t>(p[1]) << 8 |
           static_cast<std::uint32_t>(p[2]) << 16 |
           static_cast<std::uint32_t>(p[3]) << 24;
}

} // namespace

std::uint32_t
crc32Update(std::uint32_t crc, const void *data, std::size_t size)
{
    const auto *bytes = static_cast<const unsigned char *>(data);
    for (; size >= 8; bytes += 8, size -= 8) {
        const std::uint32_t lo = crc ^ loadLe32(bytes);
        const std::uint32_t hi = loadLe32(bytes + 4);
        crc = kTables[7][lo & 0xffu] ^ kTables[6][(lo >> 8) & 0xffu] ^
              kTables[5][(lo >> 16) & 0xffu] ^ kTables[4][lo >> 24] ^
              kTables[3][hi & 0xffu] ^ kTables[2][(hi >> 8) & 0xffu] ^
              kTables[1][(hi >> 16) & 0xffu] ^ kTables[0][hi >> 24];
    }
    for (; size > 0; ++bytes, --size)
        crc = kTables[0][(crc ^ *bytes) & 0xffu] ^ (crc >> 8);
    return crc;
}

} // namespace dynex

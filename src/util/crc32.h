/**
 * @file
 * CRC-32 (IEEE 802.3, reflected polynomial 0xEDB88320), used by the
 * DXT2 and DXT3 trace formats to checksum headers and record payloads
 * and by DXP1 frames. It folds eight bytes per step (slicing-by-8).
 * The incremental form lets writers fold the CRC over streamed chunks
 * without buffering the whole payload.
 */

#ifndef DYNEX_UTIL_CRC32_H
#define DYNEX_UTIL_CRC32_H

#include <cstddef>
#include <cstdint>

namespace dynex
{

/**
 * Fold @p size bytes at @p data into a running CRC-32.
 *
 * Start with crc32Init(), chain the returned value through successive
 * calls, and finish with crc32Final(). crc32Of() wraps the three for
 * one-shot use; chained calls over chunks of a buffer produce exactly
 * the one-shot value.
 */
std::uint32_t crc32Update(std::uint32_t crc, const void *data,
                          std::size_t size);

/** Initial running value (all-ones preset). */
inline std::uint32_t
crc32Init()
{
    return 0xffff'ffffu;
}

/** Final xor of a running value. */
inline std::uint32_t
crc32Final(std::uint32_t crc)
{
    return crc ^ 0xffff'ffffu;
}

/** One-shot CRC-32 of a buffer. */
inline std::uint32_t
crc32Of(const void *data, std::size_t size)
{
    return crc32Final(crc32Update(crc32Init(), data, size));
}

} // namespace dynex

#endif // DYNEX_UTIL_CRC32_H

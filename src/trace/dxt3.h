/**
 * @file
 * DXT3: the delta/varint-compressed trace format. It shares DXT2's
 * sealed container (a CRC-validated fixed header plus a trailing
 * payload CRC, see trace/trace_io.h) with a compressed record payload:
 *
 *   magic       "DXT3"                       4 bytes
 *   name_len    u32                          4 bytes
 *   count       u64                          8 bytes
 *   header_crc  u32   CRC-32 of the 16 bytes above
 *   name        name_len bytes
 *   blocks      per <= kDxt3BlockRecords records:
 *                 encoded_len u32
 *                 bytes       encoded_len bytes
 *   payload_crc u32   CRC-32 of name + every block (prefix + bytes)
 *
 * Each record encodes as one meta byte, (type << 6) | min(size, 63)
 * with 63 escaping to an explicit varint size, followed by the
 * zigzag-varint delta of its address against the previous address of
 * the *same* RefType (three running predictors, so an instruction
 * stream's sequential fetches are not perturbed by interleaved data
 * references). Sequential code compresses to ~2 bytes per 10-byte
 * DXT2 record.
 *
 * This header is the block codec. The container is read and written
 * with the other formats' by trace/trace_io.h, whose TraceDecoder
 * trusts nothing: name length and record count are capped before
 * allocation, every block length is capped at the worst-case encoding
 * of a full block, and each block goes through decodeDxt3Block, the
 * one DXT3 record decoder, where varints are bounds- and
 * width-checked, meta bytes with an invalid type are rejected, and the
 * block must be consumed exactly. Corrupt input yields CorruptInput,
 * implausible lengths yield ResourceLimit — never a crash or unbounded
 * allocation (the corruption fuzzer hammers this path).
 */

#ifndef DYNEX_TRACE_DXT3_H
#define DYNEX_TRACE_DXT3_H

#include <cstddef>
#include <cstdint>
#include <string>

#include "trace/record.h"

namespace dynex
{

/** Records per compressed block (one length-prefixed unit). */
inline constexpr std::size_t kDxt3BlockRecords = 4096;

/**
 * Worst-case encoded bytes for one block: meta byte + escaped-size
 * varint + a full 10-byte address-delta varint per record. Any block
 * claiming more is rejected before allocation.
 */
inline constexpr std::uint32_t kDxt3MaxBlockBytes =
    static_cast<std::uint32_t>(kDxt3BlockRecords) * 13;

/** The fewest bytes a record encodes to: meta plus a one-byte delta. */
inline constexpr std::size_t kDxt3MinRecordBytes = 2;

/** The three running address predictors of a DXT3 stream, one per
 * RefType; a stream's first block starts from all zeros. */
struct Dxt3Predictors
{
    std::uint64_t prev[3] = {0, 0, 0};
};

/** Append the encoding of the @p records records at @p refs to
 * @p out, advancing @p state. */
void encodeDxt3Block(const MemRef *refs, std::size_t records,
                     Dxt3Predictors &state, std::string &out);

/**
 * Decode one DXT3 block: exactly @p records records from the @p size
 * encoded bytes at @p data into @p out, advancing @p state. Every
 * meta byte's type, the size escape, and every varint's bounds and
 * width are checked, and the block must be consumed exactly.
 *
 * @return nullptr on success, else the reason the block is corrupt
 *         (the message of the CorruptInput a reader reports).
 */
const char *decodeDxt3Block(const unsigned char *data, std::size_t size,
                            std::size_t records, Dxt3Predictors &state,
                            MemRef *out);

} // namespace dynex

#endif // DYNEX_TRACE_DXT3_H

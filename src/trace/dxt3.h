/**
 * @file
 * DXT3: the delta/varint-compressed trace format. Same checksum
 * discipline as DXT2 (a CRC-validated fixed header plus a trailing
 * payload CRC) with a compressed record payload:
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
 * The decoder trusts nothing: name length and record count are capped
 * before allocation, every block length is capped at the worst-case
 * encoding of a full block, varints are bounds- and width-checked,
 * meta bytes with an invalid type are rejected, and each block must be
 * consumed exactly. Corrupt input yields CorruptInput, implausible
 * lengths yield ResourceLimit — never a crash or unbounded allocation
 * (the corruption fuzzer hammers this entry point). The per-record
 * checks live in decodeDxt3Block, the one DXT3 record decoder: the
 * streaming reader and the mapped image decoder (trace/mmap_io.h)
 * both call it.
 */

#ifndef DYNEX_TRACE_DXT3_H
#define DYNEX_TRACE_DXT3_H

#include <iosfwd>

#include "trace/trace.h"
#include "util/status.h"

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

/** The three running address predictors of a DXT3 stream, one per
 * RefType; a stream's first block starts from all zeros. */
struct Dxt3Predictors
{
    std::uint64_t prev[3] = {0, 0, 0};
};

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

/** Serialize @p trace to @p out in DXT3 (including the magic). */
Status writeTraceDxt3(const Trace &trace, std::ostream &out);

/**
 * Deserialize the body of a DXT3 image from @p in; the caller (the
 * readTrace magic dispatcher) has already consumed the 4 magic bytes.
 */
Result<Trace> readTraceDxt3(std::istream &in);

} // namespace dynex

#endif // DYNEX_TRACE_DXT3_H

/**
 * @file
 * Binary trace file formats: a compact on-disk representation so
 * generated workloads can be cached between runs and exchanged with
 * external tools.
 *
 * Three wire formats are supported (all little-endian); the
 * delta/varint-compressed DXT3 record blocks are documented in
 * trace/dxt3.h.
 *
 * DXT1 (legacy, read-only by default):
 *   magic       "DXT1"                       4 bytes
 *   name_len    u32                          4 bytes
 *   name        name_len bytes
 *   count       u64                          8 bytes
 *   records     count * { addr u64, type u8, size u8 }  (10 bytes each)
 *
 * DXT2 (checksummed, the default write format) and DXT3 share one
 * sealed container:
 *   magic       "DXT2" or "DXT3"             4 bytes
 *   name_len    u32                          4 bytes
 *   count       u64                          8 bytes
 *   header_crc  u32   CRC-32 of the 16 bytes above
 *   name        name_len bytes
 *   payload     DXT2: count * { addr u64, type u8, size u8 }
 *               DXT3: length-prefixed record blocks (trace/dxt3.h)
 *   payload_crc u32   CRC-32 of name + payload
 *
 * TraceDecoder is the one reader of all three. It validates every
 * header field against hard caps and, for DXT1/DXT2, against the bytes
 * left when its source knows its size, before allocating, so a corrupt
 * or hostile count can never trigger an unbounded allocation; DXT2 and
 * DXT3 additionally reject any image whose header or payload CRC does
 * not match.
 */

#ifndef DYNEX_TRACE_TRACE_IO_H
#define DYNEX_TRACE_TRACE_IO_H

#include <cstddef>
#include <cstdint>
#include <iosfwd>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "trace/dxt3.h"
#include "trace/trace.h"
#include "util/status.h"

namespace dynex
{

/** On-disk trace format selector for the writers. */
enum class TraceFormat
{
    Dxt1, ///< legacy, no checksums; kept for interchange with old files
    Dxt2, ///< checksummed; the default
    Dxt3, ///< delta/varint compressed + checksummed (see trace/dxt3.h)
};

/** Serialize @p trace to @p out. */
Status writeTrace(const Trace &trace, std::ostream &out,
                  TraceFormat format = TraceFormat::Dxt2);

/** Serialize @p trace to @p path; an IoError carries the errno text. */
Status writeTraceFile(const Trace &trace, const std::string &path,
                      TraceFormat format = TraceFormat::Dxt2);

/** Records per decoded block: one DXT3 block, and one DXT1/DXT2 read. */
inline constexpr std::size_t kTraceBlockRecords = kDxt3BlockRecords;

/**
 * The one DXT1/DXT2/DXT3 decoder. It pulls bytes from one of two
 * sources: a memory span (a mapped regular file, or any in-memory
 * image) or a std::istream read in chunks as the decoder needs them
 * (pipes, an mmap failure, string streams). open() reads the magic and
 * the header, applying each cap once; next() then yields the records
 * in blocks of at most kTraceBlockRecords, folding the payload CRC
 * block by block and checking it after the last one.
 *
 * Failures carry the same Status on either source, checked in the same
 * order: a short read is CorruptInput "truncated <field>" (IoError
 * "read error in <field>" when a stream breaks), an implausible name
 * length, record count or DXT3 block length is ResourceLimit, and a
 * DXT1/DXT2 count whose records cannot fit in the bytes left is
 * ResourceLimit "header claims N payload bytes but only M remain" —
 * when the source knows its size (a span, or a seekable stream). A
 * pipe discovers that truncation as "truncated records" instead; for
 * DXT3 the known size only bounds the reserve.
 */
class TraceDecoder
{
  public:
    /** Decode @p image, which must outlive the decoder. */
    explicit TraceDecoder(std::span<const unsigned char> image);

    /** Decode @p in from its current position. */
    explicit TraceDecoder(std::istream &in);

    /**
     * Decode the trace file at @p path: mapped when it is a regular
     * file that maps, else read through an ifstream from its start;
     * either way its bytes are read once. Every failure but an open
     * failure ("cannot open <path>: <errno text>", an IoError) is
     * prefixed with @p path.
     */
    explicit TraceDecoder(const std::string &path);

    ~TraceDecoder();
    TraceDecoder(const TraceDecoder &) = delete;
    TraceDecoder &operator=(const TraceDecoder &) = delete;

    /** Read and validate the magic and the header, and the name. */
    Status open();

    /** True when the decoder reads a file it mapped. */
    bool mapped() const { return mapping != nullptr; }
    const std::string &name() const { return traceName; }
    /**
     * Records a caller may reserve for up front: the header's count
     * when the source's size vouches for it, else a bound the bytes
     * actually present (or a fixed cap, on a pipe) impose.
     */
    std::size_t reserveRecords() const { return reserve; }

    /**
     * Decode the next block into the decoder's buffer. @p block is
     * valid until the next call, and empty once every record has been
     * yielded and the payload CRC checked.
     */
    Status next(std::span<const MemRef> &block);

  private:
    bool pull(std::size_t n, const unsigned char *&bytes);
    Status pullFailure(const char *what) const;
    std::int64_t bytesLeft();
    Status withPath(Status status) const;
    Status openDxt1();
    Status openSealed();
    /** Cap the count, check it against the bytes left (DXT1/DXT2;
     * @p other_bytes are the name and trailer still to come), and size
     * the reserve and the block buffer. */
    Status admitCount(std::uint64_t other_bytes);
    Status nextBlock(std::size_t n);

    // The byte source: a span when stream is null.
    const unsigned char *spanData = nullptr;
    std::size_t spanSize = 0;
    std::size_t spanAt = 0;
    std::istream *stream = nullptr;
    std::vector<unsigned char> streamBytes;

    // A file the decoder opened itself: its mapping or its stream.
    std::string path;
    void *mapping = nullptr;
    std::unique_ptr<std::ifstream> file;
    Status openFailure;

    bool dxt3 = false;
    bool sealed = false;
    bool finished = false;
    std::string traceName;
    std::uint64_t records = 0;
    std::uint64_t remaining = 0;
    std::size_t reserve = 0;
    std::uint32_t crc = 0;
    Dxt3Predictors predictors;
    std::vector<MemRef> buffer;
};

/** Drain an unopened @p decoder into a Trace. */
Result<Trace> decodeTrace(TraceDecoder &decoder);

/**
 * Deserialize a trace from @p in, auto-detecting DXT1/DXT2/DXT3 from
 * the magic. Malformed input yields CorruptInput, an implausible
 * record count or name length yields ResourceLimit; parsing never
 * allocates more than a bounded amount beyond what the stream actually
 * holds.
 */
Result<Trace> readTrace(std::istream &in);

/** Deserialize a trace from @p path (see TraceDecoder(path)); an
 * IoError carries the errno text for open failures. */
Result<Trace> readTraceFile(const std::string &path);

} // namespace dynex

#endif // DYNEX_TRACE_TRACE_IO_H

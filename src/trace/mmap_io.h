/**
 * @file
 * Zero-copy trace loading: map a DXT2 or DXT3 file read-only and
 * decode its records block by block straight out of the page cache —
 * no stream buffering, no chunked read syscalls, and the same CRC and
 * per-record validation as the streaming readers.
 *
 * TraceImageDecoder is the one mapped reader. It validates a whole
 * DXT2 or DXT3 image up front (header CRC, name and count caps, exact
 * size or plausible length, payload CRC), then yields the records in
 * blocks of at most kImageBlockRecords into one reusable buffer. DXT3
 * blocks go through decodeDxt3Block, the decoder the streaming
 * readTraceDxt3 calls, so every per-record check applies. The decoder
 * runs on any in-memory image, so the corruption fuzzer drives it
 * without files. Callers either decode into a Trace (readTraceFileFast)
 * or pack the blocks straight into a replay artifact without ever
 * building the Trace (buildReplayArtifact in sim/kernel.h).
 *
 * The mapped path is an optimization, never a requirement: anything it
 * cannot serve — a non-regular file (pipe, device), an mmap failure, a
 * DXT1 or text image, or any malformation (truncation, a bad CRC, a
 * corrupt block) — falls back to the streaming readTraceFile, whose
 * Status vocabulary is the contract callers already handle. A corrupt
 * file therefore yields the identical CorruptInput/ResourceLimit a
 * cold streaming read would.
 */

#ifndef DYNEX_TRACE_MMAP_IO_H
#define DYNEX_TRACE_MMAP_IO_H

#include <cstddef>
#include <cstdint>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "trace/dxt3.h"
#include "trace/trace.h"
#include "util/status.h"

namespace dynex
{

/** How readTraceFileFast satisfied a read (for tests and counters). */
enum class TraceReadPath
{
    Mapped,   ///< decoded from an mmap'd image
    Streamed, ///< fell back to the streaming reader
};

/** A regular file mapped read-only; unmapped when it cannot be (not an
 * error: callers fall back to streaming). */
class MappedFile
{
  public:
    explicit MappedFile(const std::string &path);
    ~MappedFile();
    MappedFile(const MappedFile &) = delete;
    MappedFile &operator=(const MappedFile &) = delete;

    bool mapped() const { return base != nullptr; }
    const unsigned char *data() const { return base; }
    std::size_t size() const { return bytes; }

  private:
    const unsigned char *base = nullptr;
    std::size_t bytes = 0;
};

/** Records per decoded block: one DXT3 block. */
inline constexpr std::size_t kImageBlockRecords = kDxt3BlockRecords;

/**
 * Decodes one complete DXT2 or DXT3 image held in memory, block by
 * block. The image bytes must outlive the decoder.
 */
class TraceImageDecoder
{
  public:
    /**
     * Validate the @p size bytes at @p data as one complete DXT2 or
     * DXT3 image: magic, header CRC, name and count caps, the size
     * (exact for DXT2, enough for count records for DXT3) and the
     * payload CRC.
     * @return false when they are not such an image; the caller then
     *         re-reads through the streaming reader for the exact
     *         Status.
     */
    bool open(const unsigned char *data, std::size_t size);

    const std::string &name() const { return traceName; }
    /** The record count the (validated) header declares. */
    std::uint64_t count() const { return records; }

    /**
     * Decode the next block, at most kImageBlockRecords records, into
     * the decoder's buffer.
     * @return the block's records, valid until the next call; empty
     *         once every record has been yielded or when the image is
     *         malformed (ok() tells which).
     */
    std::span<const MemRef> next();

    /** False once a block was malformed, or the blocks did not end
     * exactly where the payload does. */
    bool ok() const { return !failed; }

  private:
    std::span<const MemRef> fail();

    const unsigned char *cursor = nullptr;
    const unsigned char *payloadEnd = nullptr;
    std::string traceName;
    std::uint64_t records = 0;
    std::uint64_t remaining = 0;
    bool dxt3 = false;
    bool failed = false;
    Dxt3Predictors predictors;
    std::vector<MemRef> buffer;
};

/**
 * Decode the image at [@p data, @p data + @p size) into a Trace
 * through TraceImageDecoder; nullopt when it is not a well-formed
 * DXT2/DXT3 image.
 */
std::optional<Trace> decodeTraceImage(const unsigned char *data,
                                      std::size_t size);

/**
 * Load a trace from @p path, preferring the mapped DXT2/DXT3 decoder
 * and falling back to readTraceFile for everything else. When
 * @p read_path is non-null it reports which path produced the result
 * (Streamed on every fallback, including failures).
 */
Result<Trace> readTraceFileFast(const std::string &path,
                                TraceReadPath *read_path = nullptr);

} // namespace dynex

#endif // DYNEX_TRACE_MMAP_IO_H

#include "trace/trace_io.h"

#include <algorithm>
#include <cerrno>
#include <cstring>
#include <fstream>
#include <sstream>

#if defined(__unix__) || defined(__APPLE__)
#define DYNEX_HAVE_MMAP 1
#include <fcntl.h>
#include <sys/mman.h>
#include <sys/stat.h>
#include <unistd.h>
#else
#define DYNEX_HAVE_MMAP 0
#endif

#include "util/crc32.h"

namespace dynex
{

namespace
{

constexpr char kMagicDxt1[4] = {'D', 'X', 'T', '1'};
constexpr char kMagicDxt2[4] = {'D', 'X', 'T', '2'};
constexpr char kMagicDxt3[4] = {'D', 'X', 'T', '3'};
constexpr std::size_t kRecordBytes = 10;

/** Caps on unvalidated header fields, so a corrupt or hostile image
 * can never drive an unbounded allocation. */
constexpr std::uint64_t kMaxNameBytes = 1 << 20;
constexpr std::uint64_t kMaxRecords = std::uint64_t{1} << 33;

/** Upper bound on the up-front reserve when the source cannot be
 * sized: past this the vector grows geometrically as records actually
 * arrive, so memory is bounded by real input, not by a header field. */
constexpr std::uint64_t kReserveCapRecords = 1 << 20;

void
putU32(std::string &buf, std::uint32_t v)
{
    for (int i = 0; i < 4; ++i)
        buf += static_cast<char>((v >> (8 * i)) & 0xff);
}

void
putU64(std::string &buf, std::uint64_t v)
{
    for (int i = 0; i < 8; ++i)
        buf += static_cast<char>((v >> (8 * i)) & 0xff);
}

std::uint64_t
getUint(const unsigned char *p, int bytes)
{
    std::uint64_t v = 0;
    for (int i = bytes - 1; i >= 0; --i)
        v = (v << 8) | p[i];
    return v;
}

/** Bytes left between the current position and the end of a seekable
 * stream, or -1 when the stream cannot be seeked (e.g. a pipe). */
std::int64_t
remainingBytes(std::istream &in)
{
    const std::istream::pos_type here = in.tellg();
    if (here == std::istream::pos_type(-1))
        return -1;
    in.seekg(0, std::ios::end);
    const std::istream::pos_type end = in.tellg();
    in.seekg(here);
    if (end == std::istream::pos_type(-1) || !in)
        return -1;
    return static_cast<std::int64_t>(end - here);
}

std::string
errnoText()
{
    return std::strerror(errno);
}

Status
writeFailure()
{
    return Status::ioError(std::string("stream write failed: ") +
                           errnoText());
}

Status
writeBytes(std::ostream &out, const std::string &bytes)
{
    out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
    return out ? Status() : writeFailure();
}

/** Serialize the 10-byte DXT1/DXT2 records in chunks, folding an
 * optional CRC. */
Status
writeRecords(const Trace &trace, std::ostream &out, std::uint32_t *crc)
{
    std::string buf;
    buf.reserve(kRecordBytes * kTraceBlockRecords);
    auto flush = [&]() {
        if (crc)
            *crc = crc32Update(*crc, buf.data(), buf.size());
        Status status = writeBytes(out, buf);
        buf.clear();
        return status;
    };
    for (const auto &ref : trace) {
        putU64(buf, ref.addr);
        buf += static_cast<char>(ref.type);
        buf += static_cast<char>(ref.size);
        if (buf.size() >= kRecordBytes * kTraceBlockRecords)
            if (Status status = flush(); !status.ok())
                return status;
    }
    return buf.empty() ? Status() : flush();
}

/** Serialize the length-prefixed DXT3 blocks, folding @p crc. */
Status
writeDxt3Blocks(const Trace &trace, std::ostream &out, std::uint32_t &crc)
{
    Dxt3Predictors state;
    std::string block;
    std::string framed;
    for (std::size_t base = 0; base < trace.size();
         base += kDxt3BlockRecords) {
        const std::size_t end =
            std::min(trace.size(), base + kDxt3BlockRecords);
        block.clear();
        encodeDxt3Block(trace.records().data() + base, end - base, state,
                        block);
        framed.clear();
        putU32(framed, static_cast<std::uint32_t>(block.size()));
        framed += block;
        crc = crc32Update(crc, framed.data(), framed.size());
        if (Status status = writeBytes(out, framed); !status.ok())
            return status;
    }
    return Status();
}

Status
writeTraceDxt1(const Trace &trace, std::ostream &out)
{
    std::string header(kMagicDxt1, sizeof(kMagicDxt1));
    putU32(header, static_cast<std::uint32_t>(trace.name().size()));
    header += trace.name();
    putU64(header, trace.size());
    if (Status status = writeBytes(out, header); !status.ok())
        return status;
    return writeRecords(trace, out, nullptr);
}

/**
 * Write a sealed DXT2/DXT3 image: the CRC'd header and the name, then
 * the payload @p body writes (folding its bytes into the CRC it is
 * handed), then the payload CRC.
 */
template <class Body>
Status
writeSealed(const Trace &trace, std::ostream &out, const char *magic,
            Body body)
{
    std::string header(magic, 4);
    putU32(header, static_cast<std::uint32_t>(trace.name().size()));
    putU64(header, trace.size());
    putU32(header, crc32Of(header.data(), header.size()));
    header += trace.name();
    if (Status status = writeBytes(out, header); !status.ok())
        return status;

    std::uint32_t crc = crc32Update(crc32Init(), trace.name().data(),
                                    trace.name().size());
    if (Status status = body(crc); !status.ok())
        return status;

    std::string trailer;
    putU32(trailer, crc32Final(crc));
    return writeBytes(out, trailer);
}

Status
checkNameLength(std::uint64_t name_len)
{
    if (name_len <= kMaxNameBytes)
        return Status();
    std::ostringstream oss;
    oss << "implausible name length " << name_len;
    return Status::resourceLimit(oss.str());
}

} // namespace

Status
writeTrace(const Trace &trace, std::ostream &out, TraceFormat format)
{
    switch (format) {
      case TraceFormat::Dxt1:
        return writeTraceDxt1(trace, out);
      case TraceFormat::Dxt3:
        return writeSealed(trace, out, kMagicDxt3,
                           [&](std::uint32_t &crc) {
                               return writeDxt3Blocks(trace, out, crc);
                           });
      case TraceFormat::Dxt2:
        break;
    }
    return writeSealed(trace, out, kMagicDxt2, [&](std::uint32_t &crc) {
        return writeRecords(trace, out, &crc);
    });
}

Status
writeTraceFile(const Trace &trace, const std::string &path,
               TraceFormat format)
{
    std::ofstream out(path, std::ios::binary);
    if (!out)
        return Status::ioError("cannot open " + path + ": " +
                               errnoText());
    Status status = writeTrace(trace, out, format);
    if (!status.ok())
        return status.withContext(path);
    out.flush();
    if (!out)
        return Status::ioError("cannot write " + path + ": " +
                               errnoText());
    return Status();
}

TraceDecoder::TraceDecoder(std::span<const unsigned char> image)
    : spanData(image.data()), spanSize(image.size())
{
}

TraceDecoder::TraceDecoder(std::istream &in) : stream(&in) {}

TraceDecoder::TraceDecoder(const std::string &file_path) : path(file_path)
{
#if DYNEX_HAVE_MMAP
    // Only a regular file maps. It is sized by stat, before any open,
    // so a FIFO is opened once: by the stream below.
    struct stat st{};
    if (::stat(path.c_str(), &st) == 0 && S_ISREG(st.st_mode) &&
        st.st_size > 0) {
        const int fd = ::open(path.c_str(), O_RDONLY);
        if (fd >= 0) {
            const auto length = static_cast<std::size_t>(st.st_size);
            void *map = mmap(nullptr, length, PROT_READ, MAP_PRIVATE, fd, 0);
            ::close(fd);
            if (map != MAP_FAILED) {
                mapping = map;
                spanData = static_cast<const unsigned char *>(map);
                spanSize = length;
                return;
            }
        }
    }
#endif
    file = std::make_unique<std::ifstream>(path, std::ios::binary);
    if (*file)
        stream = file.get();
    else
        openFailure = Status::ioError("cannot open " + path + ": " +
                                      errnoText());
}

TraceDecoder::~TraceDecoder()
{
#if DYNEX_HAVE_MMAP
    if (mapping)
        munmap(mapping, spanSize);
#endif
}

bool
TraceDecoder::pull(std::size_t n, const unsigned char *&bytes)
{
    if (!stream) {
        if (spanSize - spanAt < n)
            return false;
        bytes = spanData + spanAt;
        spanAt += n;
        return true;
    }
    if (streamBytes.size() < n)
        streamBytes.resize(n);
    bytes = streamBytes.data();
    return n == 0 ||
           stream->read(reinterpret_cast<char *>(streamBytes.data()),
                        static_cast<std::streamsize>(n));
}

/** Classify a failed pull: a broken stream (badbit: a device error,
 * not a short file) is an IoError, anything else is truncation. */
Status
TraceDecoder::pullFailure(const char *what) const
{
    if (stream && stream->bad())
        return Status::ioError(std::string("read error in ") + what);
    return Status::corruptInput(std::string("truncated ") + what);
}

std::int64_t
TraceDecoder::bytesLeft()
{
    if (!stream)
        return static_cast<std::int64_t>(spanSize - spanAt);
    return remainingBytes(*stream);
}

Status
TraceDecoder::withPath(Status status) const
{
    return path.empty() ? status : status.withContext(path);
}

Status
TraceDecoder::open()
{
    if (!openFailure.ok())
        return openFailure;
    const unsigned char *bytes = nullptr;
    if (!pull(4, bytes))
        return withPath(pullFailure("magic"));
    if (std::memcmp(bytes, kMagicDxt1, 4) == 0)
        return withPath(openDxt1());
    dxt3 = std::memcmp(bytes, kMagicDxt3, 4) == 0;
    if (dxt3 || std::memcmp(bytes, kMagicDxt2, 4) == 0)
        return withPath(openSealed());
    return withPath(Status::corruptInput("bad magic"));
}

Status
TraceDecoder::openDxt1()
{
    const unsigned char *bytes = nullptr;
    if (!pull(4, bytes))
        return pullFailure("name length");
    const std::uint64_t name_len = getUint(bytes, 4);
    if (Status status = checkNameLength(name_len); !status.ok())
        return status;
    if (!pull(static_cast<std::size_t>(name_len), bytes))
        return pullFailure("name");
    traceName.assign(reinterpret_cast<const char *>(bytes),
                     static_cast<std::size_t>(name_len));
    if (!pull(8, bytes))
        return pullFailure("record count");
    records = getUint(bytes, 8);
    return admitCount(0);
}

Status
TraceDecoder::openSealed()
{
    // The 16-byte fixed header is validated by its own CRC before any
    // field is trusted.
    sealed = true;
    unsigned char header[16];
    std::memcpy(header, dxt3 ? kMagicDxt3 : kMagicDxt2, 4);
    const unsigned char *bytes = nullptr;
    if (!pull(12, bytes))
        return pullFailure("header");
    std::memcpy(header + 4, bytes, 12);
    if (!pull(4, bytes))
        return pullFailure("header crc");
    if (crc32Of(header, sizeof(header)) !=
        static_cast<std::uint32_t>(getUint(bytes, 4)))
        return Status::corruptInput("header crc mismatch");

    const std::uint64_t name_len = getUint(header + 4, 4);
    records = getUint(header + 8, 8);
    if (Status status = checkNameLength(name_len); !status.ok())
        return status;
    if (Status status = admitCount(name_len + 4); !status.ok())
        return status;

    if (!pull(static_cast<std::size_t>(name_len), bytes))
        return pullFailure("name");
    traceName.assign(reinterpret_cast<const char *>(bytes),
                     static_cast<std::size_t>(name_len));
    crc = crc32Update(crc32Init(), bytes,
                      static_cast<std::size_t>(name_len));
    return Status();
}

Status
TraceDecoder::admitCount(std::uint64_t other_bytes)
{
    if (records > kMaxRecords) {
        std::ostringstream oss;
        oss << "implausible record count " << records;
        return Status::resourceLimit(oss.str());
    }
    std::uint64_t bound = kReserveCapRecords;
    if (const std::int64_t left = bytesLeft(); left >= 0) {
        const auto have = static_cast<std::uint64_t>(left);
        if (dxt3) {
            bound = have / kDxt3MinRecordBytes;
        } else {
            // With both fields capped, the byte total cannot overflow.
            const std::uint64_t needed =
                other_bytes + records * kRecordBytes;
            if (needed > have) {
                std::ostringstream oss;
                oss << "header claims " << needed
                    << " payload bytes but only " << left
                    << " remain in the stream";
                return Status::resourceLimit(oss.str());
            }
            bound = records;
        }
    }
    reserve = static_cast<std::size_t>(std::min(records, bound));
    remaining = records;
    buffer.resize(static_cast<std::size_t>(
        std::min<std::uint64_t>(records, kTraceBlockRecords)));
    return Status();
}

Status
TraceDecoder::next(std::span<const MemRef> &block)
{
    block = {};
    if (remaining == 0) {
        const bool check_crc = sealed && !finished;
        finished = true;
        if (!check_crc)
            return Status();
        const unsigned char *bytes = nullptr;
        if (!pull(4, bytes))
            return withPath(pullFailure("payload crc"));
        if (crc32Final(crc) != static_cast<std::uint32_t>(getUint(bytes, 4)))
            return withPath(Status::corruptInput("payload crc mismatch"));
        return Status();
    }
    const auto n = static_cast<std::size_t>(
        std::min<std::uint64_t>(remaining, kTraceBlockRecords));
    if (Status status = nextBlock(n); !status.ok())
        return withPath(std::move(status));
    remaining -= n;
    block = {buffer.data(), n};
    return Status();
}

Status
TraceDecoder::nextBlock(std::size_t n)
{
    MemRef *const out = buffer.data();
    const unsigned char *bytes = nullptr;
    if (dxt3) {
        if (!pull(4, bytes))
            return pullFailure("block length");
        const std::uint64_t encoded = getUint(bytes, 4);
        // Caps the only allocation a block can drive: a length beyond
        // the densest possible encoding of a full block is hostile.
        if (encoded > kDxt3MaxBlockBytes) {
            std::ostringstream oss;
            oss << "implausible block length " << encoded;
            return Status::resourceLimit(oss.str());
        }
        crc = crc32Update(crc, bytes, 4);
        const auto size = static_cast<std::size_t>(encoded);
        if (!pull(size, bytes))
            return pullFailure("block");
        crc = crc32Update(crc, bytes, size);
        if (const char *error =
                decodeDxt3Block(bytes, size, n, predictors, out))
            return Status::corruptInput(error);
        return Status();
    }
    if (!pull(n * kRecordBytes, bytes))
        return pullFailure("records");
    if (sealed)
        crc = crc32Update(crc, bytes, n * kRecordBytes);
    for (std::size_t i = 0; i < n; ++i, bytes += kRecordBytes) {
        const unsigned char type = bytes[8];
        if (type > static_cast<unsigned char>(RefType::Store))
            return Status::corruptInput("invalid reference type");
        out[i].addr = getUint(bytes, 8);
        out[i].type = static_cast<RefType>(type);
        out[i].size = bytes[9];
    }
    return Status();
}

Result<Trace>
decodeTrace(TraceDecoder &decoder)
{
    if (Status status = decoder.open(); !status.ok())
        return status;
    Trace trace(decoder.name());
    trace.reserve(decoder.reserveRecords());
    std::vector<MemRef> &refs = trace.mutableRecords();
    std::span<const MemRef> block;
    do {
        if (Status status = decoder.next(block); !status.ok())
            return status;
        refs.insert(refs.end(), block.begin(), block.end());
    } while (!block.empty());
    return trace;
}

Result<Trace>
readTrace(std::istream &in)
{
    TraceDecoder decoder(in);
    return decodeTrace(decoder);
}

Result<Trace>
readTraceFile(const std::string &path)
{
    TraceDecoder decoder(path);
    return decodeTrace(decoder);
}

} // namespace dynex

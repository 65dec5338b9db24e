#include "trace/mmap_io.h"

#include <algorithm>
#include <cstring>

#if defined(__unix__) || defined(__APPLE__)
#define DYNEX_HAVE_MMAP 1
#include <fcntl.h>
#include <sys/mman.h>
#include <sys/stat.h>
#include <unistd.h>
#else
#define DYNEX_HAVE_MMAP 0
#endif

#include "trace/trace_io.h"
#include "util/crc32.h"

namespace dynex
{

namespace
{

constexpr std::size_t kHeaderBytes = 20; // magic..header_crc
constexpr std::size_t kDxt2RecordBytes = 10;
/** The fewest bytes a DXT3 record encodes to: meta plus a one-byte
 * delta. */
constexpr std::uint64_t kDxt3MinRecordBytes = 2;
constexpr std::uint64_t kMaxNameBytes = 1 << 20;
constexpr std::uint64_t kMaxRecords = std::uint64_t{1} << 33;

std::uint64_t
getUint(const unsigned char *p, int bytes)
{
    std::uint64_t v = 0;
    for (int i = bytes - 1; i >= 0; --i)
        v = (v << 8) | p[i];
    return v;
}

} // namespace

MappedFile::MappedFile(const std::string &path)
{
#if DYNEX_HAVE_MMAP
    const int fd = ::open(path.c_str(), O_RDONLY);
    if (fd < 0)
        return;
    struct stat st{};
    if (fstat(fd, &st) == 0 && S_ISREG(st.st_mode) && st.st_size > 0) {
        const auto length = static_cast<std::size_t>(st.st_size);
        void *mapping =
            mmap(nullptr, length, PROT_READ, MAP_PRIVATE, fd, 0);
        if (mapping != MAP_FAILED) {
            base = static_cast<const unsigned char *>(mapping);
            bytes = length;
        }
    }
    ::close(fd);
#else
    (void)path;
#endif
}

MappedFile::~MappedFile()
{
#if DYNEX_HAVE_MMAP
    if (base)
        munmap(const_cast<unsigned char *>(base), bytes);
#endif
}

bool
TraceImageDecoder::open(const unsigned char *data, std::size_t size)
{
    if (size < kHeaderBytes + 4)
        return false;
    dxt3 = std::memcmp(data, "DXT3", 4) == 0;
    if (!dxt3 && std::memcmp(data, "DXT2", 4) != 0)
        return false;
    if (crc32Of(data, 16) !=
        static_cast<std::uint32_t>(getUint(data + 16, 4)))
        return false;
    const std::uint64_t name_len = getUint(data + 4, 4);
    const std::uint64_t count = getUint(data + 8, 8);
    if (name_len > kMaxNameBytes || count > kMaxRecords)
        return false;
    // The payload (name plus records or blocks) sits between the
    // header and the trailing CRC. With both fields capped, none of
    // these sums can overflow.
    const std::uint64_t payload = size - kHeaderBytes - 4;
    if (name_len > payload)
        return false;
    const std::uint64_t body = payload - name_len;
    if (dxt3) {
        const std::uint64_t blocks =
            (count + kDxt3BlockRecords - 1) / kDxt3BlockRecords;
        if (body < 4 * blocks + kDxt3MinRecordBytes * count)
            return false;
    } else if (body != count * kDxt2RecordBytes) {
        return false;
    }
    const unsigned char *p = data + kHeaderBytes;
    if (crc32Of(p, static_cast<std::size_t>(payload)) !=
        static_cast<std::uint32_t>(getUint(p + payload, 4)))
        return false;

    traceName.assign(reinterpret_cast<const char *>(p),
                     static_cast<std::size_t>(name_len));
    cursor = p + name_len;
    payloadEnd = p + payload;
    records = remaining = count;
    failed = false;
    predictors = Dxt3Predictors();
    buffer.resize(static_cast<std::size_t>(
        std::min<std::uint64_t>(count, kImageBlockRecords)));
    return true;
}

std::span<const MemRef>
TraceImageDecoder::fail()
{
    failed = true;
    return {};
}

std::span<const MemRef>
TraceImageDecoder::next()
{
    if (failed)
        return {};
    if (remaining == 0) {
        // Every record is out: the blocks must end with the payload.
        if (cursor != payloadEnd)
            return fail();
        return {};
    }
    const auto n = static_cast<std::size_t>(
        std::min<std::uint64_t>(remaining, kImageBlockRecords));
    MemRef *const out = buffer.data();
    if (dxt3) {
        if (payloadEnd - cursor < 4)
            return fail();
        const std::uint64_t encoded = getUint(cursor, 4);
        cursor += 4;
        if (encoded > kDxt3MaxBlockBytes ||
            encoded > static_cast<std::uint64_t>(payloadEnd - cursor))
            return fail();
        if (decodeDxt3Block(cursor, static_cast<std::size_t>(encoded), n,
                            predictors, out))
            return fail();
        cursor += encoded;
    } else {
        // open() checked that all count() records are present.
        for (std::size_t i = 0; i < n; ++i, cursor += kDxt2RecordBytes) {
            const unsigned char type = cursor[8];
            if (type > static_cast<unsigned char>(RefType::Store))
                return fail();
            out[i].addr = getUint(cursor, 8);
            out[i].type = static_cast<RefType>(type);
            out[i].size = cursor[9];
        }
    }
    remaining -= n;
    return {out, n};
}

std::optional<Trace>
decodeTraceImage(const unsigned char *data, std::size_t size)
{
    TraceImageDecoder decoder;
    if (!decoder.open(data, size))
        return std::nullopt;
    Trace trace(decoder.name());
    trace.reserve(static_cast<std::size_t>(decoder.count()));
    std::vector<MemRef> &refs = trace.mutableRecords();
    for (auto block = decoder.next(); !block.empty();
         block = decoder.next())
        refs.insert(refs.end(), block.begin(), block.end());
    if (!decoder.ok())
        return std::nullopt;
    return trace;
}

Result<Trace>
readTraceFileFast(const std::string &path, TraceReadPath *read_path)
{
    if (read_path)
        *read_path = TraceReadPath::Streamed;
    const MappedFile file(path);
    if (file.mapped()) {
        if (auto trace = decodeTraceImage(file.data(), file.size())) {
            if (read_path)
                *read_path = TraceReadPath::Mapped;
            return std::move(*trace);
        }
    }
    return readTraceFile(path);
}

} // namespace dynex

#include "trace/dxt3.h"

#include <cerrno>
#include <cstring>
#include <fstream>
#include <sstream>
#include <vector>

#include "util/crc32.h"

namespace dynex
{

namespace
{

constexpr char kMagicDxt3[4] = {'D', 'X', 'T', '3'};

/** Caps shared with the DXT1/DXT2 readers. */
constexpr std::uint64_t kMaxNameBytes = 1 << 20;
constexpr std::uint64_t kMaxRecords = std::uint64_t{1} << 33;
constexpr std::uint64_t kReserveCapRecords = 1 << 20;

/** The meta byte's size field: 0..62 inline, 63 escapes to a varint. */
constexpr std::uint8_t kSizeEscape = 63;

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

void
putVarint(std::string &buf, std::uint64_t v)
{
    while (v >= 0x80) {
        buf += static_cast<char>((v & 0x7f) | 0x80);
        v >>= 7;
    }
    buf += static_cast<char>(v);
}

std::uint64_t
zigzagEncode(std::int64_t v)
{
    return (static_cast<std::uint64_t>(v) << 1) ^
           static_cast<std::uint64_t>(v >> 63);
}

std::int64_t
zigzagDecode(std::uint64_t v)
{
    return static_cast<std::int64_t>(v >> 1) ^
           -static_cast<std::int64_t>(v & 1);
}

/**
 * Bounds- and width-checked varint read from [at, size). A varint
 * wider than 10 bytes cannot come from the encoder and is corruption.
 * @return nullptr, or the reason the varint is corrupt.
 */
inline const char *
getVarint(const unsigned char *data, std::size_t size, std::size_t &at,
          std::uint64_t &v)
{
    std::uint64_t value = 0;
    for (int shift = 0; shift < 70; shift += 7) {
        if (at >= size)
            return "truncated varint";
        const unsigned char byte = data[at++];
        value |= static_cast<std::uint64_t>(byte & 0x7f) << shift;
        if (!(byte & 0x80)) {
            v = value;
            return nullptr;
        }
    }
    return "overlong varint";
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
readFailure(const std::istream &in, const char *what)
{
    if (in.bad())
        return Status::ioError(std::string("read error in ") + what);
    return Status::corruptInput(std::string("truncated ") + what);
}

void
encodeRecord(std::string &buf, const MemRef &ref, Dxt3Predictors &state)
{
    const auto type = static_cast<std::uint8_t>(ref.type);
    const std::uint8_t inline_size =
        ref.size < kSizeEscape ? ref.size : kSizeEscape;
    buf += static_cast<char>((type << 6) | inline_size);
    if (inline_size == kSizeEscape)
        putVarint(buf, ref.size);
    const std::int64_t delta = static_cast<std::int64_t>(
        ref.addr - state.prev[type]);
    putVarint(buf, zigzagEncode(delta));
    state.prev[type] = ref.addr;
}

} // namespace

const char *
decodeDxt3Block(const unsigned char *data, std::size_t size,
                std::size_t records, Dxt3Predictors &state, MemRef *out)
{
    std::size_t at = 0;
    for (std::size_t i = 0; i < records; ++i) {
        if (at >= size)
            return "truncated record meta";
        const unsigned char meta = data[at++];
        const unsigned char type = meta >> 6;
        if (type > static_cast<unsigned char>(RefType::Store))
            return "invalid reference type";
        std::uint64_t access_size = meta & 0x3f;
        if (access_size == kSizeEscape) {
            if (const char *error = getVarint(data, size, at, access_size))
                return error;
            if (access_size > 0xff)
                return "invalid access size";
        }
        std::uint64_t encoded_delta = 0;
        if (const char *error = getVarint(data, size, at, encoded_delta))
            return error;
        state.prev[type] += static_cast<std::uint64_t>(
            zigzagDecode(encoded_delta));
        out[i].addr = state.prev[type];
        out[i].type = static_cast<RefType>(type);
        out[i].size = static_cast<std::uint8_t>(access_size);
    }
    if (at != size)
        return "trailing bytes in block";
    return nullptr;
}

Status
writeTraceDxt3(const Trace &trace, std::ostream &out)
{
    std::string header;
    header.append(kMagicDxt3, sizeof(kMagicDxt3));
    putU32(header, static_cast<std::uint32_t>(trace.name().size()));
    putU64(header, trace.size());
    putU32(header, crc32Of(header.data(), header.size()));
    header += trace.name();
    out.write(header.data(),
              static_cast<std::streamsize>(header.size()));
    if (!out)
        return writeFailure();
    std::uint32_t crc = crc32Update(crc32Init(), trace.name().data(),
                                    trace.name().size());

    Dxt3Predictors state;
    std::string block;
    std::string framed;
    for (std::size_t base = 0; base < trace.size();
         base += kDxt3BlockRecords) {
        const std::size_t end =
            std::min(trace.size(), base + kDxt3BlockRecords);
        block.clear();
        for (std::size_t i = base; i < end; ++i)
            encodeRecord(block, trace[i], state);
        framed.clear();
        putU32(framed, static_cast<std::uint32_t>(block.size()));
        framed += block;
        crc = crc32Update(crc, framed.data(), framed.size());
        out.write(framed.data(),
                  static_cast<std::streamsize>(framed.size()));
        if (!out)
            return writeFailure();
    }

    std::string trailer;
    putU32(trailer, crc32Final(crc));
    out.write(trailer.data(),
              static_cast<std::streamsize>(trailer.size()));
    if (!out)
        return writeFailure();
    return Status();
}

Result<Trace>
readTraceDxt3(std::istream &in)
{
    // Validate the fixed header by its own CRC before trusting fields.
    unsigned char header[16];
    std::memcpy(header, kMagicDxt3, 4);
    if (!in.read(reinterpret_cast<char *>(header) + 4, 12))
        return readFailure(in, "header");
    const std::uint64_t name_len = getUint(header + 4, 4);
    const std::uint64_t count = getUint(header + 8, 8);
    unsigned char crc_word[4];
    if (!in.read(reinterpret_cast<char *>(crc_word), 4))
        return readFailure(in, "header crc");
    if (crc32Of(header, sizeof(header)) !=
        static_cast<std::uint32_t>(getUint(crc_word, 4)))
        return Status::corruptInput("header crc mismatch");

    if (name_len > kMaxNameBytes) {
        std::ostringstream oss;
        oss << "implausible name length " << name_len;
        return Status::resourceLimit(oss.str());
    }
    if (count > kMaxRecords) {
        std::ostringstream oss;
        oss << "implausible record count " << count;
        return Status::resourceLimit(oss.str());
    }

    std::string name(static_cast<std::size_t>(name_len), '\0');
    if (name_len && !in.read(name.data(),
                             static_cast<std::streamsize>(name_len)))
        return readFailure(in, "name");
    std::uint32_t crc =
        crc32Update(crc32Init(), name.data(), name.size());

    Trace trace(name);
    trace.reserve(static_cast<std::size_t>(
        std::min(count, kReserveCapRecords)));
    Dxt3Predictors state;
    std::vector<unsigned char> block;
    std::uint64_t remaining = count;
    while (remaining > 0) {
        const std::size_t records = static_cast<std::size_t>(
            std::min<std::uint64_t>(remaining, kDxt3BlockRecords));
        unsigned char len_word[4];
        if (!in.read(reinterpret_cast<char *>(len_word), 4))
            return readFailure(in, "block length");
        const std::uint64_t encoded = getUint(len_word, 4);
        // Caps the only allocation a block can drive: a length beyond
        // the densest possible encoding of a full block is hostile.
        if (encoded > kDxt3MaxBlockBytes) {
            std::ostringstream oss;
            oss << "implausible block length " << encoded;
            return Status::resourceLimit(oss.str());
        }
        crc = crc32Update(crc, len_word, 4);
        block.resize(static_cast<std::size_t>(encoded));
        if (encoded && !in.read(reinterpret_cast<char *>(block.data()),
                                static_cast<std::streamsize>(encoded)))
            return readFailure(in, "block");
        crc = crc32Update(crc, block.data(), block.size());
        std::vector<MemRef> &refs = trace.mutableRecords();
        const std::size_t base = refs.size();
        refs.resize(base + records);
        if (const char *error = decodeDxt3Block(
                block.data(), block.size(), records, state,
                refs.data() + base))
            return Status::corruptInput(error);
        remaining -= records;
    }

    if (!in.read(reinterpret_cast<char *>(crc_word), 4))
        return readFailure(in, "payload crc");
    if (crc32Final(crc) !=
        static_cast<std::uint32_t>(getUint(crc_word, 4)))
        return Status::corruptInput("payload crc mismatch");
    return trace;
}

} // namespace dynex

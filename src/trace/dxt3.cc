#include "trace/dxt3.h"

namespace dynex
{

namespace
{

/** The meta byte's size field: 0..62 inline, 63 escapes to a varint. */
constexpr std::uint8_t kSizeEscape = 63;

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

} // namespace

void
encodeDxt3Block(const MemRef *refs, std::size_t records,
                Dxt3Predictors &state, std::string &out)
{
    for (std::size_t i = 0; i < records; ++i) {
        const MemRef &ref = refs[i];
        const auto type = static_cast<std::uint8_t>(ref.type);
        const std::uint8_t inline_size =
            ref.size < kSizeEscape ? ref.size : kSizeEscape;
        out += static_cast<char>((type << 6) | inline_size);
        if (inline_size == kSizeEscape)
            putVarint(out, ref.size);
        const std::int64_t delta = static_cast<std::int64_t>(
            ref.addr - state.prev[type]);
        putVarint(out, zigzagEncode(delta));
        state.prev[type] = ref.addr;
    }
}

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

} // namespace dynex

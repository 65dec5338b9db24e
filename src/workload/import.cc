#include "workload/import.h"

#include <cerrno>
#include <charconv>
#include <cstring>
#include <fstream>
#include <optional>
#include <sstream>
#include <string_view>

#include "trace/line_reader.h"

namespace dynex
{
namespace workload
{

namespace
{

/** Lackey record layout: addr u64 + kind u8 + size u8. */
constexpr std::size_t kLackeyRecordBytes = 10;

/** Chunked-read granularity for the binary reader. */
constexpr std::size_t kReadChunkBytes = 64 * 1024;

Status
recordError(std::uint64_t record_no, std::uint64_t offset,
            const std::string &reason)
{
    std::ostringstream oss;
    oss << "record " << record_no << " at offset " << offset << ": "
        << reason;
    return Status::corruptInput(oss.str());
}

std::string
errnoText()
{
    return std::strerror(errno);
}

std::uint64_t
effectiveCap(const ImportOptions &options)
{
    return options.maxRefs == 0 ? kDefaultImportRefCap
                                : options.maxRefs;
}

char
typeLetter(RefType type)
{
    switch (type) {
      case RefType::Ifetch:
        return 'i';
      case RefType::Load:
        return 'l';
      case RefType::Store:
        return 's';
    }
    return 'i';
}

/** Parse a decimal access size 1..255; nullopt on malformed text. */
std::optional<std::uint8_t>
parseAccessSize(std::string_view text)
{
    if (text.empty() || text.size() > 3)
        return std::nullopt;
    unsigned value = 0;
    const auto result = std::from_chars(
        text.data(), text.data() + text.size(), value, 10);
    if (result.ec != std::errc{} ||
        result.ptr != text.data() + text.size())
        return std::nullopt;
    if (value == 0 || value > 255)
        return std::nullopt;
    return static_cast<std::uint8_t>(value);
}

} // namespace

std::string
importBaseName(const std::string &path)
{
    const auto slash = path.find_last_of('/');
    return slash == std::string::npos ? path : path.substr(slash + 1);
}

// ---------------------------------------------------------------------
// Text format

Status
writeTextTrace(const Trace &trace, std::ostream &out)
{
    out << "# dynex text trace: " << trace.name() << "\n";
    char buf[48];
    for (const auto &ref : trace) {
        const int written = std::snprintf(
            buf, sizeof(buf), "%c %llx %u\n", typeLetter(ref.type),
            static_cast<unsigned long long>(ref.addr),
            static_cast<unsigned>(ref.size));
        out.write(buf, written);
    }
    if (!out)
        return Status::ioError(std::string("stream write failed: ") +
                               errnoText());
    return Status();
}

Status
writeTextTraceFile(const Trace &trace, const std::string &path)
{
    std::ofstream out(path);
    if (!out)
        return Status::ioError("cannot open " + path + ": " +
                               errnoText());
    Status status = writeTextTrace(trace, out);
    if (!status.ok())
        return status.withContext(path);
    out.flush();
    if (!out)
        return Status::ioError("cannot write " + path + ": " +
                               errnoText());
    return Status();
}

Result<Trace>
readTextTrace(std::istream &in, const std::string &name,
              const ImportOptions &options)
{
    const std::uint64_t cap = effectiveCap(options);
    Trace trace(name);
    LineReader lines(in);
    std::string_view line;
    while (lines.next(line)) {
        // Trailing comments are part of the format; cut before
        // splitting so "l 2000 # stack" parses.
        line = line.substr(0, line.find('#'));

        // Split on whitespace: <type> <addr> [size].
        std::string_view fields[4];
        std::size_t count = 0;
        for (std::string_view field = nextField(line);
             !field.empty() && count < 4; field = nextField(line))
            fields[count++] = field;
        if (count == 0)
            continue;
        const std::size_t line_no = lines.lineNumber();
        if (count < 2)
            return lineError(line_no, "expected '<type> <hex-addr> "
                                      "[size]'");
        if (count > 3)
            return lineError(line_no, "unexpected trailing field '" +
                                          std::string(fields[3]) + "'");

        // Type letter. Matched as literal text so unknown letters and
        // multi-character labels are both rejected with the offender.
        const std::string_view label = fields[0];
        const char letter = label.size() == 1 ? label[0] : '\0';
        RefType type;
        if (letter == 'i' || letter == 'I')
            type = RefType::Ifetch;
        else if (letter == 'l' || letter == 'L')
            type = RefType::Load;
        else if (letter == 's' || letter == 'S')
            type = RefType::Store;
        else
            return lineError(line_no, "unknown reference type '" +
                                          std::string(label) +
                                          "' (want i, l, or s)");

        Addr addr = 0;
        if (const HexAddrError error = parseHexAddr(fields[1], addr);
            error != HexAddrError::None)
            return lineError(line_no, hexAddrReason(error, fields[1]));

        std::uint8_t size = 4;
        if (count == 3) {
            const auto access = parseAccessSize(fields[2]);
            if (!access)
                return lineError(line_no, "bad access size '" +
                                              std::string(fields[2]) +
                                              "' (want 1..255)");
            size = *access;
        }

        if (trace.size() >= cap)
            return Status::resourceLimit(
                "line " + std::to_string(line_no) +
                ": reference count exceeds the import cap of " +
                std::to_string(cap));
        trace.append(MemRef{addr, type, size});
    }
    if (in.bad())
        return Status::ioError("stream read failed: " + errnoText());
    return trace;
}

Result<Trace>
readTextTraceFile(const std::string &path, const std::string &name,
                  const ImportOptions &options)
{
    std::ifstream in(path);
    if (!in)
        return Status::ioError("cannot open " + path + ": " +
                               errnoText());
    Result<Trace> result = readTextTrace(
        in, name.empty() ? importBaseName(path) : name, options);
    if (!result.ok())
        return result.status().withContext(path);
    return result;
}

// ---------------------------------------------------------------------
// Lackey binary format

Status
writeLackeyTrace(const Trace &trace, std::ostream &out)
{
    char record[kLackeyRecordBytes];
    for (const auto &ref : trace) {
        for (std::size_t b = 0; b < 8; ++b)
            record[b] =
                static_cast<char>((ref.addr >> (8 * b)) & 0xff);
        record[8] = static_cast<char>(ref.type);
        record[9] = static_cast<char>(ref.size);
        out.write(record, sizeof(record));
    }
    if (!out)
        return Status::ioError(std::string("stream write failed: ") +
                               errnoText());
    return Status();
}

Status
writeLackeyTraceFile(const Trace &trace, const std::string &path)
{
    std::ofstream out(path, std::ios::binary);
    if (!out)
        return Status::ioError("cannot open " + path + ": " +
                               errnoText());
    Status status = writeLackeyTrace(trace, out);
    if (!status.ok())
        return status.withContext(path);
    out.flush();
    if (!out)
        return Status::ioError("cannot write " + path + ": " +
                               errnoText());
    return Status();
}

Result<Trace>
readLackeyTrace(std::istream &in, const std::string &name,
                const ImportOptions &options)
{
    const std::uint64_t cap = effectiveCap(options);
    Trace trace(name);
    char chunk[kReadChunkBytes];
    // Bytes of a record split across chunk boundaries.
    char carry[kLackeyRecordBytes];
    std::size_t carried = 0;
    std::uint64_t offset = 0;

    for (;;) {
        in.read(chunk, sizeof(chunk));
        const std::size_t got = static_cast<std::size_t>(in.gcount());
        if (in.bad())
            return Status::ioError("stream read failed: " +
                                   errnoText());
        if (got == 0)
            break;

        std::size_t at = 0;
        // Finish a record begun in the previous chunk first.
        if (carried > 0) {
            const std::size_t need = kLackeyRecordBytes - carried;
            const std::size_t take = need < got ? need : got;
            std::memcpy(carry + carried, chunk, take);
            carried += take;
            at = take;
            if (carried < kLackeyRecordBytes)
                continue;
            carried = 0;
            Addr addr = 0;
            for (std::size_t b = 0; b < 8; ++b)
                addr |= static_cast<Addr>(
                            static_cast<unsigned char>(carry[b]))
                        << (8 * b);
            const auto kind = static_cast<unsigned char>(carry[8]);
            const auto size = static_cast<unsigned char>(carry[9]);
            if (kind > 2)
                return recordError(trace.size(), offset,
                                   "unknown reference kind " +
                                       std::to_string(kind));
            if (size == 0)
                return recordError(trace.size(), offset,
                                   "zero access size");
            if (trace.size() >= cap)
                return Status::resourceLimit(
                    "record " + std::to_string(trace.size()) +
                    ": reference count exceeds the import cap of " +
                    std::to_string(cap));
            trace.append(MemRef{addr, static_cast<RefType>(kind),
                                static_cast<std::uint8_t>(size)});
            offset += kLackeyRecordBytes;
        }

        while (got - at >= kLackeyRecordBytes) {
            const unsigned char *raw =
                reinterpret_cast<const unsigned char *>(chunk + at);
            Addr addr = 0;
            for (std::size_t b = 0; b < 8; ++b)
                addr |= static_cast<Addr>(raw[b]) << (8 * b);
            const unsigned char kind = raw[8];
            const unsigned char size = raw[9];
            if (kind > 2)
                return recordError(trace.size(), offset,
                                   "unknown reference kind " +
                                       std::to_string(kind));
            if (size == 0)
                return recordError(trace.size(), offset,
                                   "zero access size");
            if (trace.size() >= cap)
                return Status::resourceLimit(
                    "record " + std::to_string(trace.size()) +
                    ": reference count exceeds the import cap of " +
                    std::to_string(cap));
            trace.append(MemRef{addr, static_cast<RefType>(kind),
                                static_cast<std::uint8_t>(size)});
            at += kLackeyRecordBytes;
            offset += kLackeyRecordBytes;
        }

        if (at < got) {
            carried = got - at;
            std::memcpy(carry, chunk + at, carried);
        }
    }

    if (carried > 0)
        return recordError(trace.size(), offset,
                           "truncated record (" +
                               std::to_string(carried) + " of " +
                               std::to_string(kLackeyRecordBytes) +
                               " bytes)");
    return trace;
}

Result<Trace>
readLackeyTraceFile(const std::string &path, const std::string &name,
                    const ImportOptions &options)
{
    std::ifstream in(path, std::ios::binary);
    if (!in)
        return Status::ioError("cannot open " + path + ": " +
                               errnoText());
    Result<Trace> result = readLackeyTrace(
        in, name.empty() ? importBaseName(path) : name, options);
    if (!result.ok())
        return result.status().withContext(path);
    return result;
}

} // namespace workload
} // namespace dynex

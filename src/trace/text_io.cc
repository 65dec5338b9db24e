#include "trace/text_io.h"

#include <cerrno>
#include <cstring>
#include <fstream>

#include "trace/line_reader.h"
#include "trace/trace_io.h"
#include "util/string_utils.h"

namespace dynex
{

namespace
{

int
dinLabel(RefType type)
{
    switch (type) {
      case RefType::Load:
        return 0;
      case RefType::Store:
        return 1;
      case RefType::Ifetch:
        return 2;
    }
    return 2;
}

std::string
errnoText()
{
    return std::strerror(errno);
}

} // namespace

Status
writeDinTrace(const Trace &trace, std::ostream &out)
{
    out << "# din trace: " << trace.name() << "\n";
    char buf[40];
    for (const auto &ref : trace) {
        const int written =
            std::snprintf(buf, sizeof(buf), "%d %llx\n",
                          dinLabel(ref.type),
                          static_cast<unsigned long long>(ref.addr));
        out.write(buf, written);
    }
    if (!out)
        return Status::ioError(std::string("stream write failed: ") +
                               errnoText());
    return Status();
}

Status
writeDinTraceFile(const Trace &trace, const std::string &path)
{
    std::ofstream out(path);
    if (!out)
        return Status::ioError("cannot open " + path + ": " +
                               errnoText());
    Status status = writeDinTrace(trace, out);
    if (!status.ok())
        return status.withContext(path);
    out.flush();
    if (!out)
        return Status::ioError("cannot write " + path + ": " +
                               errnoText());
    return Status();
}

Result<Trace>
readDinTrace(std::istream &in, const std::string &name)
{
    Trace trace(name);
    LineReader lines(in);
    std::string_view line;
    while (lines.next(line)) {
        // Label field. Matched as literal text so both unknown ("x")
        // and out-of-range ("3", "17", "-1") labels are rejected.
        std::string_view rest = line;
        const std::string_view label = nextField(rest);
        if (label.empty() || label[0] == '#')
            continue;
        RefType type;
        if (label == "0")
            type = RefType::Load;
        else if (label == "1")
            type = RefType::Store;
        else if (label == "2")
            type = RefType::Ifetch;
        else
            return lineError(lines.lineNumber(),
                             "unknown din label '" + std::string(label) +
                                 "'");

        // Address field (hex, optional 0x prefix). Only a blank or a
        // tab ends it: din allows extra fields after the address.
        std::string_view addr_text = trimSpace(rest);
        addr_text = addr_text.substr(0, addr_text.find_first_of(" \t"));
        Addr addr = 0;
        if (const HexAddrError error = parseHexAddr(addr_text, addr);
            error != HexAddrError::None)
            return lineError(lines.lineNumber(),
                             hexAddrReason(error, addr_text));
        trace.append(MemRef{addr, type, 4});
    }
    if (in.bad())
        return Status::ioError("stream read failed: " + errnoText());
    return trace;
}

Result<Trace>
readDinTraceFile(const std::string &path)
{
    std::ifstream in(path);
    if (!in)
        return Status::ioError("cannot open " + path + ": " +
                               errnoText());
    // Name the trace after the file's basename.
    std::string name = path;
    if (const auto slash = name.find_last_of('/');
        slash != std::string::npos)
        name = name.substr(slash + 1);
    Result<Trace> result = readDinTrace(in, name);
    if (!result.ok())
        return result.status().withContext(path);
    return result;
}

bool
isDinPath(const std::string &path)
{
    return path.size() >= 4 &&
           iequals(path.substr(path.size() - 4), ".din");
}

bool
isDxt3Path(const std::string &path)
{
    return path.size() >= 5 &&
           iequals(path.substr(path.size() - 5), ".dxt3");
}

Result<Trace>
readAnyTraceFile(const std::string &path)
{
    return isDinPath(path) ? readDinTraceFile(path) : readTraceFile(path);
}

} // namespace dynex

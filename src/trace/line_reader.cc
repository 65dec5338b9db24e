#include "trace/line_reader.h"

#include <cstring>
#include <istream>

namespace dynex
{

std::string
hexAddrReason(HexAddrError error, std::string_view text)
{
    switch (error) {
      case HexAddrError::None:
        break;
      case HexAddrError::Missing:
        return "missing address";
      case HexAddrError::TooLong:
        return "hex address longer than 64 bits";
      case HexAddrError::OutOfRange:
        return "hex address out of range";
      case HexAddrError::Malformed:
        return "malformed hex address '" + std::string(text) + "'";
    }
    return {};
}

Status
lineError(std::size_t line_no, std::string_view reason)
{
    std::string text = "line " + std::to_string(line_no) + ": ";
    text += reason;
    return Status::corruptInput(std::move(text));
}

LineReader::LineReader(std::istream &in)
    : in(in), buffer(new char[kChunkBytes])
{}

bool
LineReader::next(std::string_view &line)
{
    for (;;) {
        const char *data = buffer.get();
        if (const void *newline =
                std::memchr(data + begin, '\n', end - begin)) {
            const auto at = static_cast<std::size_t>(
                static_cast<const char *>(newline) - data);
            line = std::string_view(data + begin, at - begin);
            begin = at + 1;
            ++lineNo;
            return true;
        }
        if (drained) {
            // After a read error the unfinished line is not a line.
            if (begin == end || in.bad())
                return false;
            line = std::string_view(data + begin, end - begin);
            begin = end;
            ++lineNo;
            return true;
        }
        refill();
    }
}

void
LineReader::refill()
{
    if (begin > 0) {
        std::memmove(buffer.get(), buffer.get() + begin, end - begin);
        end -= begin;
        begin = 0;
    }
    if (end == capacity) {
        // One line fills the whole buffer: double it.
        std::unique_ptr<char[]> grown(new char[2 * capacity]);
        std::memcpy(grown.get(), buffer.get(), end);
        buffer = std::move(grown);
        capacity *= 2;
    }
    in.read(buffer.get() + end,
            static_cast<std::streamsize>(capacity - end));
    end += static_cast<std::size_t>(in.gcount());
    // istream::read only comes back short at the end of the input or
    // on an error; either way there is nothing more to read.
    if (!in)
        drained = true;
}

} // namespace dynex

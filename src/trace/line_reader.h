/**
 * @file
 * The line-oriented parsing shared by the two text trace formats (din,
 * trace/text_io, and the importer's text format, workload/import): a
 * chunked line reader, a whitespace field splitter and a hex-address
 * parser, all over std::string_view so a well-formed line costs no
 * allocation.
 *
 * Whitespace is std::isspace in the C locale (blank, \t, \n, \v, \f,
 * \r), tested inline so the result never depends on the process
 * locale.
 */

#ifndef DYNEX_TRACE_LINE_READER_H
#define DYNEX_TRACE_LINE_READER_H

#include <charconv>
#include <cstddef>
#include <iosfwd>
#include <memory>
#include <string>
#include <string_view>

#include "util/status.h"
#include "util/types.h"

namespace dynex
{

/** std::isspace in the C locale. */
constexpr bool
isCSpace(char c)
{
    return c == ' ' ||
           static_cast<unsigned char>(c - '\t') <= '\r' - '\t';
}

/** @p text without leading and trailing C-locale whitespace. */
inline std::string_view
trimSpace(std::string_view text)
{
    std::size_t begin = 0;
    std::size_t end = text.size();
    while (begin < end && isCSpace(text[begin]))
        ++begin;
    while (end > begin && isCSpace(text[end - 1]))
        --end;
    return text.substr(begin, end - begin);
}

/** Pop the next whitespace-separated field off the front of @p rest;
 * empty once no field is left. */
inline std::string_view
nextField(std::string_view &rest)
{
    std::size_t begin = 0;
    while (begin < rest.size() && isCSpace(rest[begin]))
        ++begin;
    std::size_t end = begin;
    while (end < rest.size() && !isCSpace(rest[end]))
        ++end;
    const std::string_view field = rest.substr(begin, end - begin);
    rest.remove_prefix(end);
    return field;
}

/** Why parseHexAddr rejected its text. */
enum class HexAddrError
{
    None,
    Missing,    ///< nothing after an optional 0x/0X prefix
    TooLong,    ///< more than 16 hex digits
    OutOfRange, ///< does not fit 64 bits
    Malformed,  ///< a character that is not a hex digit
};

/** Parse a hex address with an optional 0x/0X prefix into @p addr. */
inline HexAddrError
parseHexAddr(std::string_view text, Addr &addr)
{
    if (text.size() >= 2 && text[0] == '0' &&
        (text[1] == 'x' || text[1] == 'X'))
        text.remove_prefix(2);
    if (text.empty())
        return HexAddrError::Missing;
    // 16 digits fill 64 bits. Checked before from_chars, so no
    // overlong run is ever scanned.
    if (text.size() > 16)
        return HexAddrError::TooLong;
    const char *last = text.data() + text.size();
    const auto parsed = std::from_chars(text.data(), last, addr, 16);
    if (parsed.ec == std::errc::result_out_of_range)
        return HexAddrError::OutOfRange;
    if (parsed.ec != std::errc{} || parsed.ptr != last)
        return HexAddrError::Malformed;
    return HexAddrError::None;
}

/** The reason text for @p error; a malformed address quotes @p text. */
std::string hexAddrReason(HexAddrError error, std::string_view text);

/** CorruptInput "line <line_no>: <reason>". */
Status lineError(std::size_t line_no, std::string_view reason);

/**
 * Splits a stream into lines, reading it in bounded chunks. A line is
 * a view into the reader's buffer without its '\n' (a CR before it is
 * kept, and is whitespace to both formats); it stays valid until the
 * next call to next(). The buffer grows only to hold a line longer
 * than a chunk. A last line without a newline is still a line.
 */
class LineReader
{
  public:
    /** Bytes read from the stream per chunk. */
    static constexpr std::size_t kChunkBytes = 64 * 1024;

    explicit LineReader(std::istream &in);

    /** The next line, or false at the end of the input or after a
     * read error (badbit on the stream); the lines before the chunk
     * whose read failed have all been returned. */
    bool next(std::string_view &line);

    /** 1-based number of the line next() returned last. */
    std::size_t lineNumber() const { return lineNo; }

  private:
    /** Move the unfinished line to the buffer's front and read the
     * next chunk after it. */
    void refill();

    std::istream &in;
    std::unique_ptr<char[]> buffer;
    std::size_t capacity = kChunkBytes;
    std::size_t begin = 0;
    std::size_t end = 0;
    std::size_t lineNo = 0;
    bool drained = false;
};

} // namespace dynex

#endif // DYNEX_TRACE_LINE_READER_H

/**
 * @file
 * Importer tests: exact round-trips through the text and lackey
 * external formats (including access sizes and all reference kinds),
 * tolerant text parsing (comments, blanks, case, 0x prefixes), and
 * the hardened-decoder contract — structured errors naming the line
 * (text) or record + byte offset (lackey), reference caps as
 * ResourceLimit, and file-level errors carrying the path.
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <sstream>
#include <string>

#include "../util/faulty_stream.h"
#include "util/rng.h"
#include "workload/import.h"

namespace dynex::workload
{
namespace
{

Trace
corpusTrace(int refs = 500)
{
    Trace trace("import-corpus");
    Rng rng(0x1992);
    for (int i = 0; i < refs; ++i) {
        const Addr addr = rng.next() & 0xffff'ffff'ffffull;
        const auto size = static_cast<std::uint8_t>(1 + rng.nextBelow(255));
        switch (rng.nextBelow(3)) {
        case 0: trace.append(ifetch(addr, size)); break;
        case 1: trace.append(load(addr, size)); break;
        default: trace.append(store(addr, size)); break;
        }
    }
    return trace;
}

void
expectSameRecords(const Trace &a, const Trace &b)
{
    ASSERT_EQ(a.size(), b.size());
    for (std::size_t i = 0; i < a.size(); ++i) {
        EXPECT_EQ(a[i].addr, b[i].addr) << "ref " << i;
        EXPECT_EQ(a[i].type, b[i].type) << "ref " << i;
        EXPECT_EQ(a[i].size, b[i].size) << "ref " << i;
    }
}

TEST(ImportText, RoundTripsExactly)
{
    const Trace trace = corpusTrace();
    std::ostringstream out;
    ASSERT_TRUE(writeTextTrace(trace, out).ok());
    std::istringstream in(out.str());
    const auto back = readTextTrace(in, "back");
    ASSERT_TRUE(back.ok()) << back.status().toString();
    EXPECT_EQ(back.value().name(), "back");
    expectSameRecords(trace, back.value());
}

TEST(ImportText, AcceptsCommentsBlanksCaseAndPrefixes)
{
    std::istringstream in("# header comment\n"
                          "\n"
                          "I 0x1000\n"
                          "l 2000 8   # trailing comment\n"
                          "S 0xABCD 1\n"
                          "   \t  \n");
    const auto trace = readTextTrace(in, "t");
    ASSERT_TRUE(trace.ok()) << trace.status().toString();
    ASSERT_EQ(trace.value().size(), 3u);
    EXPECT_EQ(trace.value()[0].type, RefType::Ifetch);
    EXPECT_EQ(trace.value()[0].addr, 0x1000u);
    EXPECT_EQ(trace.value()[0].size, 4u); // default access size
    EXPECT_EQ(trace.value()[1].type, RefType::Load);
    EXPECT_EQ(trace.value()[1].addr, 0x2000u);
    EXPECT_EQ(trace.value()[1].size, 8u);
    EXPECT_EQ(trace.value()[2].type, RefType::Store);
    EXPECT_EQ(trace.value()[2].addr, 0xabcdu);
}

TEST(ImportText, ErrorsNameTheOffendingLine)
{
    std::istringstream in("i 1000\n"
                          "l 2000\n"
                          "q 3000\n");
    const auto trace = readTextTrace(in, "t");
    ASSERT_FALSE(trace.ok());
    EXPECT_EQ(trace.status().code(), StatusCode::CorruptInput);
    EXPECT_NE(trace.status().message().find("line 3"),
              std::string::npos)
        << trace.status().toString();
}

TEST(ImportText, RejectsMalformedAddressesAndSizes)
{
    {
        std::istringstream in("i zzzz\n");
        const auto trace = readTextTrace(in, "t");
        ASSERT_FALSE(trace.ok());
        EXPECT_EQ(trace.status().code(), StatusCode::CorruptInput);
    }
    {
        std::istringstream in("i 1000 0\n");
        const auto trace = readTextTrace(in, "t");
        ASSERT_FALSE(trace.ok());
        EXPECT_EQ(trace.status().code(), StatusCode::CorruptInput);
    }
    {
        std::istringstream in("i 1000 300\n");
        const auto trace = readTextTrace(in, "t");
        ASSERT_FALSE(trace.ok());
        EXPECT_EQ(trace.status().code(), StatusCode::CorruptInput);
    }
    {
        std::istringstream in("i\n");
        const auto trace = readTextTrace(in, "t");
        ASSERT_FALSE(trace.ok());
        EXPECT_EQ(trace.status().code(), StatusCode::CorruptInput);
    }
}

TEST(ImportText, ReferenceCapIsResourceLimitNotTruncation)
{
    std::istringstream in("i 1000\ni 2000\ni 3000\n");
    ImportOptions options;
    options.maxRefs = 2;
    const auto trace = readTextTrace(in, "t", options);
    ASSERT_FALSE(trace.ok());
    EXPECT_EQ(trace.status().code(), StatusCode::ResourceLimit);
}

// The parser's exact contract, pinned line by line: what it accepts,
// and the status code and full message of everything it rejects.

/** Parse @p text; the test fails unless it parses. */
Trace
parseOk(const std::string &text)
{
    std::istringstream in(text);
    auto trace = readTextTrace(in, "t");
    EXPECT_TRUE(trace.ok()) << trace.status().toString();
    return trace.ok() ? std::move(trace.value()) : Trace("failed");
}

/** The status of parsing @p text. */
Status
parseStatus(const std::string &text)
{
    std::istringstream in(text);
    return readTextTrace(in, "t").status();
}

/** A line far longer than any read chunk the parser could use. */
constexpr std::size_t kLongLine = 300'000;

TEST(ImportText, AcceptsCrlfAndAnUnterminatedLastLine)
{
    const Trace trace = parseOk("i 1000\r\nl 2000 8\r\n\r\ns 3000 2");
    ASSERT_EQ(trace.size(), 3u);
    EXPECT_EQ(trace[0].addr, 0x1000u);
    EXPECT_EQ(trace[1].size, 8u);
    EXPECT_EQ(trace[2].type, RefType::Store);
    EXPECT_EQ(trace[2].addr, 0x3000u);
    EXPECT_EQ(trace[2].size, 2u);
    // Line numbers count CRLF lines once each.
    EXPECT_EQ(parseStatus("i 1000\r\n\r\nq 1\r\n").message(),
              "line 3: unknown reference type 'q' (want i, l, or s)");
    EXPECT_EQ(parseOk("").size(), 0u);
    EXPECT_EQ(parseOk("\n\n# only comments\n").size(), 0u);
}

TEST(ImportText, LinesLongerThanAReadChunkParse)
{
    const std::string pad(kLongLine, ' ');
    const std::string comment(kLongLine, 'c');
    const Trace trace = parseOk("i" + pad + "1000" + pad + "8\n" +
                                "# " + comment + "\n" + "l 2000 #" +
                                comment + "\n" + "s 3000");
    ASSERT_EQ(trace.size(), 3u);
    EXPECT_EQ(trace[0].addr, 0x1000u);
    EXPECT_EQ(trace[0].size, 8u);
    EXPECT_EQ(trace[1].addr, 0x2000u);
    EXPECT_EQ(trace[2].addr, 0x3000u);

    // A long offending field is quoted whole, on the right line.
    const std::string field(kLongLine, 'q');
    EXPECT_EQ(parseStatus("i 1\n" + pad + "\n" + field + " 1000\n")
                  .message(),
              "line 3: unknown reference type '" + field +
                  "' (want i, l, or s)");
}

TEST(ImportText, EveryCLocaleSpaceSeparatesFields)
{
    const Trace trace =
        parseOk("i\t1000\t8\n\vl\v2000\f2\f\n\fs 3000\r4\n\v\f\t\r\n");
    ASSERT_EQ(trace.size(), 3u);
    EXPECT_EQ(trace[0].addr, 0x1000u);
    EXPECT_EQ(trace[0].size, 8u);
    EXPECT_EQ(trace[1].addr, 0x2000u);
    EXPECT_EQ(trace[1].size, 2u);
    EXPECT_EQ(trace[2].addr, 0x3000u);
    EXPECT_EQ(trace[2].size, 4u);
    // Bytes outside the C locale's space set are field text: a
    // Latin-1 no-break space glues its neighbours into one field.
    EXPECT_EQ(parseStatus("i\xa0" "1000\n").message(),
              "line 1: expected '<type> <hex-addr> [size]'");
    // So is NUL.
    EXPECT_EQ(parseStatus(std::string("i 10\0 4\n", 8)).message(),
              std::string("line 1: malformed hex address '10\0'", 35));
}

TEST(ImportText, AddressPrefixesAndWidths)
{
    const Trace trace = parseOk("i 0X1F\nl 0xabc\ns ABC\n"
                                "i ffffffffffffffff\n"
                                "i 0x0000000000000001\n");
    ASSERT_EQ(trace.size(), 5u);
    EXPECT_EQ(trace[0].addr, 0x1fu);
    EXPECT_EQ(trace[1].addr, 0xabcu);
    EXPECT_EQ(trace[2].addr, 0xabcu);
    EXPECT_EQ(trace[3].addr, ~Addr{0});
    EXPECT_EQ(trace[4].addr, 1u);

    EXPECT_EQ(parseStatus("i 0x\n").message(), "line 1: missing address");
    EXPECT_EQ(parseStatus("i 0X 4\n").message(),
              "line 1: missing address");
    EXPECT_EQ(parseStatus("i 12345678901234567\n").message(),
              "line 1: hex address longer than 64 bits");
    EXPECT_EQ(parseStatus("i 0x12345678901234567\n").message(),
              "line 1: hex address longer than 64 bits");
    EXPECT_EQ(parseStatus("i 0x0x5\n").message(),
              "line 1: malformed hex address '0x0x5'");
    EXPECT_EQ(parseStatus("i -5\n").message(),
              "line 1: malformed hex address '-5'");
    EXPECT_EQ(parseStatus("i +5\n").message(),
              "line 1: malformed hex address '+5'");
    EXPECT_EQ(parseStatus("i 12g4\n").message(),
              "line 1: malformed hex address '12g4'");
}

TEST(ImportText, AccessSizesAndFieldCounts)
{
    const Trace trace = parseOk("i 1 1\ni 2 255\ni 3 004\ni 4\n");
    ASSERT_EQ(trace.size(), 4u);
    EXPECT_EQ(trace[0].size, 1u);
    EXPECT_EQ(trace[1].size, 255u);
    EXPECT_EQ(trace[2].size, 4u);
    EXPECT_EQ(trace[3].size, 4u);

    for (const char *size : {"+4", "0", "256", "0004", "-1", "4x", "x"})
        EXPECT_EQ(parseStatus(std::string("i 1000 ") + size + "\n")
                      .message(),
                  std::string("line 1: bad access size '") + size +
                      "' (want 1..255)");
    EXPECT_EQ(parseStatus("i 1000 4 extra\n").message(),
              "line 1: unexpected trailing field 'extra'");
    EXPECT_EQ(parseStatus("i 1000 4 5 6\n").message(),
              "line 1: unexpected trailing field '5'");
    EXPECT_EQ(parseStatus("i\n").message(),
              "line 1: expected '<type> <hex-addr> [size]'");
    EXPECT_EQ(parseStatus("  1000  \n").message(),
              "line 1: expected '<type> <hex-addr> [size]'");
}

TEST(ImportText, CommentsAndTypeLetters)
{
    const Trace trace =
        parseOk("I 1000#no space\nL 2000 2# sized\nS 3000\n"
                "i 4000 #\n#i 5000\n   # indented\n");
    ASSERT_EQ(trace.size(), 4u);
    EXPECT_EQ(trace[0].type, RefType::Ifetch);
    EXPECT_EQ(trace[0].addr, 0x1000u);
    EXPECT_EQ(trace[1].type, RefType::Load);
    EXPECT_EQ(trace[1].size, 2u);
    EXPECT_EQ(trace[2].type, RefType::Store);
    EXPECT_EQ(trace[3].addr, 0x4000u);

    // A comment cuts the line before it is split, so "#" can hide a
    // field a line would otherwise need.
    EXPECT_EQ(parseStatus("i #1000\n").message(),
              "line 1: expected '<type> <hex-addr> [size]'");
    EXPECT_EQ(parseStatus("ii 1000\n").message(),
              "line 1: unknown reference type 'ii' (want i, l, or s)");
    EXPECT_EQ(parseStatus("x 1000\n").message(),
              "line 1: unknown reference type 'x' (want i, l, or s)");
}

TEST(ImportText, ErrorCodesAndMessagesAreExact)
{
    const Status bad = parseStatus("# c\ni 1000\n\nl 2000 zz\n");
    EXPECT_EQ(bad.code(), StatusCode::CorruptInput);
    EXPECT_EQ(bad.message(), "line 4: bad access size 'zz' (want 1..255)");

    std::istringstream in("i 1000\n# c\ni 2000\ni 3000\n");
    ImportOptions options;
    options.maxRefs = 2;
    const Status capped = readTextTrace(in, "t", options).status();
    EXPECT_EQ(capped.code(), StatusCode::ResourceLimit);
    EXPECT_EQ(capped.message(),
              "line 4: reference count exceeds the import cap of 2");

    // A malformed line past the cap reports the parse error: each line
    // is parsed before the cap is checked.
    std::istringstream over("i 1000\ni 2000\nq 3000\n");
    const Status first = readTextTrace(over, "t", options).status();
    EXPECT_EQ(first.code(), StatusCode::CorruptInput);
    EXPECT_EQ(first.message(),
              "line 3: unknown reference type 'q' (want i, l, or s)");
}

TEST(ImportText, ReadErrorsAreIoErrorsAfterEarlierLines)
{
    // 30000 lines, about 230 KB: several read chunks.
    std::string image;
    for (int i = 0; i < 30000; ++i)
        image += "i " + std::to_string(100000 + i) + "\n";
    {
        test::FaultyStream in(image, image.size() / 2,
                              test::FaultKind::ReadError);
        const Status status = readTextTrace(in, "t").status();
        EXPECT_EQ(status.code(), StatusCode::IoError)
            << status.toString();
        EXPECT_EQ(status.message().rfind("stream read failed: ", 0), 0u)
            << status.toString();
    }
    {
        // A bad line read well before the fault is reported as itself.
        test::FaultyStream in("q 1\n" + image, image.size() / 2,
                              test::FaultKind::ReadError);
        EXPECT_EQ(readTextTrace(in, "t").status().message(),
                  "line 1: unknown reference type 'q' (want i, l, or s)");
    }
    {
        // A short read ends the input; a cut line parses as the last.
        test::FaultyStream in(image, 13, test::FaultKind::ShortRead);
        const auto trace = readTextTrace(in, "t");
        ASSERT_TRUE(trace.ok()) << trace.status().toString();
        ASSERT_EQ(trace.value().size(), 2u);
        EXPECT_EQ(trace.value()[1].addr, 0x10u);
    }
}

TEST(ImportLackey, RoundTripsExactly)
{
    const Trace trace = corpusTrace();
    std::ostringstream out;
    ASSERT_TRUE(writeLackeyTrace(trace, out).ok());
    std::istringstream in(out.str());
    const auto back = readLackeyTrace(in, "back");
    ASSERT_TRUE(back.ok()) << back.status().toString();
    expectSameRecords(trace, back.value());
}

TEST(ImportLackey, TruncatedTailNamesRecordAndOffset)
{
    const Trace trace = corpusTrace(4);
    std::ostringstream out;
    ASSERT_TRUE(writeLackeyTrace(trace, out).ok());
    std::string bytes = out.str();
    bytes.resize(bytes.size() - 3); // leave a 7-byte partial record
    std::istringstream in(bytes);
    const auto back = readLackeyTrace(in, "t");
    ASSERT_FALSE(back.ok());
    EXPECT_EQ(back.status().code(), StatusCode::CorruptInput);
    EXPECT_NE(back.status().message().find("record 3"),
              std::string::npos)
        << back.status().toString();
    EXPECT_NE(back.status().message().find("offset 30"),
              std::string::npos)
        << back.status().toString();
}

TEST(ImportLackey, RejectsUnknownKindAndZeroSize)
{
    const Trace trace = corpusTrace(2);
    std::ostringstream out;
    ASSERT_TRUE(writeLackeyTrace(trace, out).ok());
    {
        std::string bytes = out.str();
        bytes[8] = 9; // record 0's kind byte
        std::istringstream in(bytes);
        const auto back = readLackeyTrace(in, "t");
        ASSERT_FALSE(back.ok());
        EXPECT_EQ(back.status().code(), StatusCode::CorruptInput);
    }
    {
        std::string bytes = out.str();
        bytes[9] = 0; // record 0's size byte
        std::istringstream in(bytes);
        const auto back = readLackeyTrace(in, "t");
        ASSERT_FALSE(back.ok());
        EXPECT_EQ(back.status().code(), StatusCode::CorruptInput);
    }
}

TEST(ImportLackey, ReferenceCapIsResourceLimit)
{
    const Trace trace = corpusTrace(5);
    std::ostringstream out;
    ASSERT_TRUE(writeLackeyTrace(trace, out).ok());
    std::istringstream in(out.str());
    ImportOptions options;
    options.maxRefs = 4;
    const auto back = readLackeyTrace(in, "t", options);
    ASSERT_FALSE(back.ok());
    EXPECT_EQ(back.status().code(), StatusCode::ResourceLimit);
}

TEST(ImportFiles, RoundTripThroughFilesAndDefaultNames)
{
    const Trace trace = corpusTrace(50);
    const std::string dir = ::testing::TempDir();
    const std::string textPath = dir + "import_roundtrip.txt";
    const std::string lackeyPath = dir + "import_roundtrip.lk";

    ASSERT_TRUE(writeTextTraceFile(trace, textPath).ok());
    const auto text = readTextTraceFile(textPath);
    ASSERT_TRUE(text.ok()) << text.status().toString();
    EXPECT_EQ(text.value().name(), "import_roundtrip.txt");
    expectSameRecords(trace, text.value());

    ASSERT_TRUE(writeLackeyTraceFile(trace, lackeyPath).ok());
    const auto lackey = readLackeyTraceFile(lackeyPath, "renamed");
    ASSERT_TRUE(lackey.ok()) << lackey.status().toString();
    EXPECT_EQ(lackey.value().name(), "renamed");
    expectSameRecords(trace, lackey.value());

    std::remove(textPath.c_str());
    std::remove(lackeyPath.c_str());
}

TEST(ImportFiles, MissingFileIsIoErrorCarryingThePath)
{
    const auto trace = readTextTraceFile("/nonexistent/nope.txt");
    ASSERT_FALSE(trace.ok());
    EXPECT_EQ(trace.status().code(), StatusCode::IoError);
    EXPECT_NE(trace.status().message().find("nope.txt"),
              std::string::npos)
        << trace.status().toString();
}

} // namespace
} // namespace dynex::workload

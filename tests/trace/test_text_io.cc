/** @file Unit tests of the din text trace format. */

#include <gtest/gtest.h>

#include <sstream>
#include <string>

#include "trace/text_io.h"

namespace dynex
{
namespace
{

TEST(DinFormat, WritesLabelsAndHexAddresses)
{
    Trace trace("t");
    trace.append(load(0x1000));
    trace.append(store(0x2004));
    trace.append(ifetch(0xdeadbeef));
    std::ostringstream out;
    ASSERT_TRUE(writeDinTrace(trace, out).ok());
    EXPECT_EQ(out.str(),
              "# din trace: t\n0 1000\n1 2004\n2 deadbeef\n");
}

TEST(DinFormat, RoundTrips)
{
    Trace trace("t");
    trace.append(load(0x1000));
    trace.append(store(0x2004));
    trace.append(ifetch(0x40'0000));
    std::stringstream buffer;
    ASSERT_TRUE(writeDinTrace(trace, buffer).ok());

    const auto restored = readDinTrace(buffer, "t");
    ASSERT_TRUE(restored.ok()) << restored.status().toString();
    ASSERT_EQ(restored->size(), trace.size());
    for (std::size_t i = 0; i < trace.size(); ++i)
        EXPECT_EQ((*restored)[i], trace[i]) << "record " << i;
}

TEST(DinFormat, AcceptsCommentsBlanksAndPrefixes)
{
    std::stringstream in("# comment\n\n2 0x1000\n0 FF\n");
    const auto trace = readDinTrace(in);
    ASSERT_TRUE(trace.ok());
    ASSERT_EQ(trace->size(), 2u);
    EXPECT_EQ((*trace)[0].addr, 0x1000u);
    EXPECT_EQ((*trace)[0].type, RefType::Ifetch);
    EXPECT_EQ((*trace)[1].addr, 0xffu);
    EXPECT_EQ((*trace)[1].type, RefType::Load);
}

TEST(DinFormat, IgnoresTrailingFields)
{
    std::stringstream in("2 1000 12345\n");
    const auto trace = readDinTrace(in);
    ASSERT_TRUE(trace.ok());
    ASSERT_EQ(trace->size(), 1u);
    EXPECT_EQ((*trace)[0].addr, 0x1000u);
}

TEST(DinFormat, RejectsBadLabel)
{
    std::stringstream in("7 1000\n");
    const auto result = readDinTrace(in, "x");
    ASSERT_FALSE(result.ok());
    EXPECT_EQ(result.status().code(), StatusCode::CorruptInput);
    EXPECT_NE(result.status().message().find("line 1"),
              std::string::npos);
    EXPECT_NE(result.status().message().find("unknown din label"),
              std::string::npos);
}

TEST(DinFormat, RejectsOutOfRangeLabels)
{
    for (const char *line : {"3 1000\n", "17 1000\n", "-1 1000\n",
                             "00 1000\n", "0x2 1000\n"}) {
        std::stringstream in(line);
        const auto result = readDinTrace(in, "x");
        ASSERT_FALSE(result.ok()) << line;
        EXPECT_EQ(result.status().code(), StatusCode::CorruptInput);
        EXPECT_NE(result.status().message().find("din label"),
                  std::string::npos)
            << line;
    }
}

TEST(DinFormat, RejectsBadAddress)
{
    std::stringstream in("2 zzzz\n");
    const auto result = readDinTrace(in, "x");
    ASSERT_FALSE(result.ok());
    EXPECT_NE(result.status().message().find("malformed hex"),
              std::string::npos);
}

TEST(DinFormat, RejectsOverlongHexAddress)
{
    // 17 hex digits cannot fit a 64-bit address; neither can a
    // 40-digit monster, which must not be fed to from_chars blindly.
    for (const char *line :
         {"2 12345678901234567\n",
          "2 0xffffffffffffffffffffffffffffffffffffffff\n"}) {
        std::stringstream in(line);
        const auto result = readDinTrace(in, "x");
        ASSERT_FALSE(result.ok()) << line;
        EXPECT_EQ(result.status().code(), StatusCode::CorruptInput);
        EXPECT_NE(result.status().message().find("line 1"),
                  std::string::npos);
        EXPECT_NE(result.status().message().find("64 bits"),
                  std::string::npos)
            << line;
    }
}

TEST(DinFormat, AcceptsFullWidthAddress)
{
    std::stringstream in("2 ffffffffffffffff\n");
    const auto trace = readDinTrace(in);
    ASSERT_TRUE(trace.ok()) << trace.status().toString();
    EXPECT_EQ((*trace)[0].addr, ~Addr{0});
}

TEST(DinFormat, ErrorsNameTheOffendingLine)
{
    std::stringstream in("2 1000\n0 2000\n# fine\n1 oops\n");
    const auto result = readDinTrace(in, "x");
    ASSERT_FALSE(result.ok());
    EXPECT_NE(result.status().message().find("line 4"),
              std::string::npos);
}

TEST(DinFormat, RejectsMissingAddress)
{
    std::stringstream in("2\n");
    const auto result = readDinTrace(in, "x");
    ASSERT_FALSE(result.ok());
    EXPECT_EQ(result.status().code(), StatusCode::CorruptInput);
}

// The reader's exact contract, pinned: what it accepts, and the status
// code and message of everything it rejects.

/** Parse @p text; the test fails unless it parses. */
Trace
parseOk(const std::string &text)
{
    std::istringstream in(text);
    auto trace = readDinTrace(in, "t");
    EXPECT_TRUE(trace.ok()) << trace.status().toString();
    return trace.ok() ? std::move(trace.value()) : Trace("failed");
}

/** The status of parsing @p text. */
Status
parseStatus(const std::string &text)
{
    std::istringstream in(text);
    return readDinTrace(in, "t").status();
}

TEST(DinFormat, AcceptsCrlfAndAnUnterminatedLastLine)
{
    const Trace trace = parseOk("2 1000\r\n0 2000\r\n\r\n1 3000");
    ASSERT_EQ(trace.size(), 3u);
    EXPECT_EQ(trace[0].addr, 0x1000u);
    EXPECT_EQ(trace[1].type, RefType::Load);
    EXPECT_EQ(trace[2].type, RefType::Store);
    EXPECT_EQ(trace[2].addr, 0x3000u);
    EXPECT_EQ(parseStatus("2 1000\r\n\r\n5 1\r\n").message(),
              "line 3: unknown din label '5'");
    EXPECT_EQ(parseOk("").size(), 0u);
}

TEST(DinFormat, LinesLongerThanAReadChunkParse)
{
    const std::string pad(300'000, ' ');
    const Trace trace = parseOk(pad + "2" + pad + "1000" + pad + "\n" +
                                "#" + std::string(300'000, 'c') +
                                "\n0 2000\n");
    ASSERT_EQ(trace.size(), 2u);
    EXPECT_EQ(trace[0].addr, 0x1000u);
    EXPECT_EQ(trace[1].addr, 0x2000u);
    const std::string label(300'000, '7');
    EXPECT_EQ(parseStatus("2 1\n" + pad + "\n" + label + " 1000\n")
                  .message(),
              "line 3: unknown din label '" + label + "'");
}

TEST(DinFormat, WhitespaceAndComments)
{
    const Trace trace =
        parseOk("\f2\v1000\v\n\t0\t2000\t9 9\n  # indented\n1 3000 #x\n");
    ASSERT_EQ(trace.size(), 3u);
    EXPECT_EQ(trace[0].addr, 0x1000u);
    EXPECT_EQ(trace[1].addr, 0x2000u);
    EXPECT_EQ(trace[2].addr, 0x3000u);
    // Only a blank or a tab ends the address: any other space inside
    // the line, or a '#' glued to it, is part of it.
    for (const char *line : {"2 1000\v5\n", "2 1000\f5\n", "2 1000\r5\n",
                             "2 1000#x\n"}) {
        const Status status = parseStatus(line);
        EXPECT_EQ(status.code(), StatusCode::CorruptInput) << line;
        EXPECT_EQ(status.message().rfind("line 1: malformed hex address",
                                         0),
                  0u)
            << status.toString();
    }
    // A '#' starts a comment only as the first character of a line.
    EXPECT_EQ(parseStatus("2# 1000\n").message(),
              "line 1: unknown din label '2#'");
}

TEST(DinFormat, AddressPrefixesAndExactMessages)
{
    const Trace trace = parseOk("2 0X1F\n0 0xabc\n1 ABC\n");
    ASSERT_EQ(trace.size(), 3u);
    EXPECT_EQ(trace[0].addr, 0x1fu);
    EXPECT_EQ(trace[1].addr, 0xabcu);
    EXPECT_EQ(trace[2].addr, 0xabcu);

    EXPECT_EQ(parseStatus("2 0x\n").message(), "line 1: missing address");
    EXPECT_EQ(parseStatus("2 0X 5\n").message(),
              "line 1: missing address");
    EXPECT_EQ(parseStatus("# c\n2\n").message(),
              "line 2: missing address");
    EXPECT_EQ(parseStatus("2 12345678901234567\n").message(),
              "line 1: hex address longer than 64 bits");
    EXPECT_EQ(parseStatus("2 0x12345678901234567\n").message(),
              "line 1: hex address longer than 64 bits");
    EXPECT_EQ(parseStatus("x 1000\n").message(),
              "line 1: unknown din label 'x'");
    for (const char *line : {"2 0x0x5\n", "2 -5\n", "2 +5\n", "2 12g4\n"}) {
        const Status status = parseStatus(line);
        EXPECT_EQ(status.code(), StatusCode::CorruptInput) << line;
        EXPECT_EQ(status.message().rfind("line 1: malformed hex address",
                                         0),
                  0u)
            << status.toString();
    }
    // Like the text importer's, the message quotes the address.
    EXPECT_EQ(parseStatus("2 0x0x5 9\n").message(),
              "line 1: malformed hex address '0x0x5'");
}

TEST(DinFormat, FileRoundTripNamesTraceAfterBasename)
{
    Trace trace("orig");
    trace.append(ifetch(0x42));
    const std::string path = ::testing::TempDir() + "/dynex_din_test.din";
    ASSERT_TRUE(writeDinTraceFile(trace, path).ok());
    const auto restored = readDinTraceFile(path);
    std::remove(path.c_str());
    ASSERT_TRUE(restored.ok());
    EXPECT_EQ(restored->name(), "dynex_din_test.din");
    EXPECT_EQ((*restored)[0].addr, 0x42u);
}

TEST(DinFormat, MissingFileReportsErrnoText)
{
    const auto result = readDinTraceFile("/no/such/file.din");
    ASSERT_FALSE(result.ok());
    EXPECT_EQ(result.status().code(), StatusCode::IoError);
    EXPECT_NE(result.status().message().find("cannot open"),
              std::string::npos);
    EXPECT_NE(result.status().message().find("o such file"),
              std::string::npos);
}

} // namespace
} // namespace dynex

/**
 * @file
 * Tests of the obs layer's shared text output: the JSON string
 * escaper's exact bytes (every report, log line and trace file goes
 * through it, so a changed byte would change them all), the number
 * format, and the whole-file writer.
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>

#include "obs/json.h"

namespace dynex
{
namespace
{

std::string
jsonQuoted(const std::string &text)
{
    std::string out;
    obs::appendJsonString(out, text);
    return out;
}

TEST(JsonText, EscapesEveryControlCharacter)
{
    std::string controls;
    for (int c = 0; c < 0x20; ++c)
        controls += static_cast<char>(c);
    // Short escapes for \t \n \r only; \b and \f take the \u form.
    EXPECT_EQ(jsonQuoted(controls),
              "\"\\u0000\\u0001\\u0002\\u0003\\u0004\\u0005\\u0006"
              "\\u0007\\u0008\\t\\n\\u000b\\u000c\\r\\u000e\\u000f"
              "\\u0010\\u0011\\u0012\\u0013\\u0014\\u0015\\u0016"
              "\\u0017\\u0018\\u0019\\u001a\\u001b\\u001c\\u001d"
              "\\u001e\\u001f\"");
}

TEST(JsonText, EscapesQuoteAndBackslash)
{
    EXPECT_EQ(jsonQuoted("\"\\"), "\"\\\"\\\\\"");
}

TEST(JsonText, PassesDeleteAndUtf8Through)
{
    EXPECT_EQ(jsonQuoted("\x7f"), "\"\x7f\"");
    const std::string utf8 =
        "caf\xc3\xa9 \xe2\x86\x92 \xe6\x97\xa5\xf0\x9f\x98\x80";
    EXPECT_EQ(jsonQuoted(utf8), "\"" + utf8 + "\"");
    EXPECT_EQ(jsonQuoted(""), "\"\"");
}

TEST(JsonText, AppendsWithoutTouchingThePrefix)
{
    std::string out = "{\"k\":";
    obs::appendJsonString(out, "a\tb");
    EXPECT_EQ(out, "{\"k\":\"a\\tb\"");
}

TEST(JsonText, DoublesRoundTripAtSeventeenDigits)
{
    EXPECT_EQ(obs::jsonDouble(0.1), "0.10000000000000001");
    EXPECT_EQ(obs::jsonDouble(12.5), "12.5");
    EXPECT_EQ(obs::jsonDouble(0.0), "0");
}

TEST(JsonText, WriteTextFileReplacesTheFileAndReportsFailures)
{
    const std::string path = ::testing::TempDir() + "obs_json_text.txt";
    ASSERT_TRUE(obs::writeTextFile(path, "first, longer content").ok());
    ASSERT_TRUE(obs::writeTextFile(path, std::string("a\0b\n", 4)).ok());
    std::ifstream in(path, std::ios::binary);
    std::ostringstream read;
    read << in.rdbuf();
    EXPECT_EQ(read.str(), std::string("a\0b\n", 4));
    std::remove(path.c_str());

    const Status missing =
        obs::writeTextFile("/nonexistent-dir/x/y.json", "{}");
    EXPECT_EQ(missing.code(), StatusCode::IoError);
    EXPECT_NE(missing.message().find("cannot open"), std::string::npos);
}

} // namespace
} // namespace dynex

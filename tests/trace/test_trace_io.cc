/** @file Unit tests of the binary trace file formats (DXT1 + DXT2). */

#include <gtest/gtest.h>

#include <cstdio>
#include <sstream>

#include "../util/faulty_stream.h"
#include "trace/trace_io.h"

namespace dynex
{
namespace
{

Trace
sampleTrace()
{
    Trace trace("sample");
    trace.append(ifetch(0x1000));
    trace.append(load(0xdeadbeef, 8));
    trace.append(store(0xffff'ffff'0000'0004ull, 2));
    return trace;
}

/** Byte offset of the record area in a DXT2 image of @p trace. */
std::size_t
dxt2RecordOffset(const Trace &trace)
{
    return 4 + 4 + 8 + 4 + trace.name().size();
}

TEST(TraceIo, DefaultFormatIsDxt2)
{
    std::stringstream buffer;
    ASSERT_TRUE(writeTrace(sampleTrace(), buffer).ok());
    EXPECT_EQ(buffer.str().substr(0, 4), "DXT2");
}

TEST(TraceIo, Dxt2RoundTripThroughStream)
{
    const Trace original = sampleTrace();
    std::stringstream buffer;
    ASSERT_TRUE(writeTrace(original, buffer).ok());

    const auto restored = readTrace(buffer);
    ASSERT_TRUE(restored.ok()) << restored.status().toString();
    EXPECT_EQ(restored->name(), "sample");
    ASSERT_EQ(restored->size(), original.size());
    for (std::size_t i = 0; i < original.size(); ++i)
        EXPECT_EQ((*restored)[i], original[i]) << "record " << i;
}

TEST(TraceIo, Dxt1StillReadableAndWritable)
{
    const Trace original = sampleTrace();
    std::stringstream buffer;
    ASSERT_TRUE(writeTrace(original, buffer, TraceFormat::Dxt1).ok());
    EXPECT_EQ(buffer.str().substr(0, 4), "DXT1");

    const auto restored = readTrace(buffer);
    ASSERT_TRUE(restored.ok()) << restored.status().toString();
    ASSERT_EQ(restored->size(), original.size());
    for (std::size_t i = 0; i < original.size(); ++i)
        EXPECT_EQ((*restored)[i], original[i]) << "record " << i;
}

TEST(TraceIo, RoundTripLargeTraceThroughFile)
{
    Trace big("big");
    for (int i = 0; i < 20000; ++i)
        big.append(ifetch(0x1000 + 4 * static_cast<Addr>(i)));

    const std::string path = ::testing::TempDir() + "/dynex_io_test.dxt";
    ASSERT_TRUE(writeTraceFile(big, path).ok());
    const auto restored = readTraceFile(path);
    std::remove(path.c_str());
    ASSERT_TRUE(restored.ok()) << restored.status().toString();
    EXPECT_EQ(restored->size(), big.size());
    EXPECT_EQ((*restored)[19999], big[19999]);
}

TEST(TraceIo, EmptyTraceRoundTrips)
{
    Trace empty("nothing");
    std::stringstream buffer;
    ASSERT_TRUE(writeTrace(empty, buffer).ok());
    const auto restored = readTrace(buffer);
    ASSERT_TRUE(restored.ok());
    EXPECT_TRUE(restored->empty());
    EXPECT_EQ(restored->name(), "nothing");
}

TEST(TraceIo, RejectsBadMagic)
{
    std::stringstream buffer("NOPE-not-a-trace");
    const auto result = readTrace(buffer);
    ASSERT_FALSE(result.ok());
    EXPECT_EQ(result.status().code(), StatusCode::CorruptInput);
    EXPECT_EQ(result.status().message(), "bad magic");
}

TEST(TraceIo, Dxt2DetectsHeaderCorruption)
{
    std::stringstream buffer;
    ASSERT_TRUE(writeTrace(sampleTrace(), buffer).ok());
    std::string bytes = buffer.str();
    bytes[9] ^= 0x40; // flip a bit of the record count
    std::stringstream corrupt(bytes);
    const auto result = readTrace(corrupt);
    ASSERT_FALSE(result.ok());
    EXPECT_EQ(result.status().code(), StatusCode::CorruptInput);
    EXPECT_NE(result.status().message().find("header crc"),
              std::string::npos);
}

TEST(TraceIo, Dxt2DetectsPayloadCorruption)
{
    const Trace original = sampleTrace();
    std::stringstream buffer;
    ASSERT_TRUE(writeTrace(original, buffer).ok());
    std::string bytes = buffer.str();
    bytes[dxt2RecordOffset(original) + 3] ^= 0x01; // flip an addr bit
    std::stringstream corrupt(bytes);
    const auto result = readTrace(corrupt);
    ASSERT_FALSE(result.ok());
    EXPECT_EQ(result.status().code(), StatusCode::CorruptInput);
    EXPECT_NE(result.status().message().find("payload crc"),
              std::string::npos);
}

TEST(TraceIo, Dxt2DetectsNameCorruption)
{
    const Trace original = sampleTrace();
    std::stringstream buffer;
    ASSERT_TRUE(writeTrace(original, buffer).ok());
    std::string bytes = buffer.str();
    bytes[4 + 4 + 8 + 4] = 'X'; // first byte of the name
    std::stringstream corrupt(bytes);
    const auto result = readTrace(corrupt);
    ASSERT_FALSE(result.ok());
    EXPECT_EQ(result.status().code(), StatusCode::CorruptInput);
}

TEST(TraceIo, RejectsTruncatedRecords)
{
    const Trace original = sampleTrace();
    std::stringstream buffer;
    ASSERT_TRUE(writeTrace(original, buffer, TraceFormat::Dxt1).ok());
    std::string bytes = buffer.str();
    bytes.resize(bytes.size() - 5); // chop into the last record

    // On a seekable stream the mismatch between the claimed count and
    // the bytes actually behind it is caught up front.
    std::stringstream chopped(bytes);
    const auto result = readTrace(chopped);
    ASSERT_FALSE(result.ok());
    EXPECT_EQ(result.status().code(), StatusCode::ResourceLimit);
    EXPECT_NE(result.status().message().find("remain"),
              std::string::npos);

    // A pipe-like stream cannot be sized up front, so the reader only
    // discovers the truncation when the records run out.
    test::FaultyStream piped(bytes, bytes.size(),
                             test::FaultKind::ShortRead);
    const auto piped_result = readTrace(piped);
    ASSERT_FALSE(piped_result.ok());
    EXPECT_EQ(piped_result.status().code(), StatusCode::CorruptInput);
    EXPECT_EQ(piped_result.status().message(), "truncated records");
}

TEST(TraceIo, RejectsInvalidRefType)
{
    const Trace original = sampleTrace();
    std::stringstream buffer;
    ASSERT_TRUE(writeTrace(original, buffer, TraceFormat::Dxt1).ok());
    std::string bytes = buffer.str();
    // The type byte of record 0 sits 8 bytes into the record area.
    const std::size_t header = 4 + 4 + original.name().size() + 8;
    bytes[header + 8] = 9;
    std::stringstream corrupt(bytes);
    const auto result = readTrace(corrupt);
    ASSERT_FALSE(result.ok());
    EXPECT_EQ(result.status().code(), StatusCode::CorruptInput);
    EXPECT_EQ(result.status().message(), "invalid reference type");
}

TEST(TraceIo, ImplausibleCountIsAResourceLimitNotAnAllocation)
{
    // A DXT1 header claiming ~2^56 records backed by 4 bytes of
    // payload: the reader must refuse before reserving anything.
    std::string bytes = "DXT1";
    bytes += std::string(4, '\0'); // name_len = 0
    std::string count(8, '\0');
    count[7] = 0x7f; // count = 0x7f00'0000'0000'0000
    bytes += count;
    bytes += "junk";
    std::stringstream in(bytes);
    const auto result = readTrace(in);
    ASSERT_FALSE(result.ok());
    EXPECT_EQ(result.status().code(), StatusCode::ResourceLimit);
}

TEST(TraceIo, Dxt1ImplausibleNameLengthQuotesTheLength)
{
    // The one name-length cap, with DXT2/DXT3's message.
    std::string bytes = "DXT1";
    bytes += std::string("\x01\x00\x20\x00", 4); // name_len = 2^21 + 1
    bytes += "name";
    std::stringstream in(bytes);
    const auto result = readTrace(in);
    ASSERT_FALSE(result.ok());
    EXPECT_EQ(result.status().code(), StatusCode::ResourceLimit);
    EXPECT_EQ(result.status().message(), "implausible name length 2097153");
}

TEST(TraceIo, CountBeyondStreamSizeIsAResourceLimit)
{
    // A plausible-looking count (1M records) with only a handful of
    // payload bytes behind it: rejected against the remaining stream
    // size, not discovered via a giant allocation + short read.
    std::string bytes = "DXT1";
    bytes += std::string(4, '\0'); // name_len = 0
    std::string count(8, '\0');
    count[2] = 0x10; // count = 0x100000 = 1M records
    bytes += count;
    bytes += "tiny";
    std::stringstream in(bytes);
    const auto result = readTrace(in);
    ASSERT_FALSE(result.ok());
    EXPECT_EQ(result.status().code(), StatusCode::ResourceLimit);
    EXPECT_NE(result.status().message().find("remain"),
              std::string::npos);
}

TEST(TraceIo, MissingFileReportsErrnoText)
{
    const auto result = readTraceFile("/nonexistent/dir/trace.dxt");
    ASSERT_FALSE(result.ok());
    EXPECT_EQ(result.status().code(), StatusCode::IoError);
    EXPECT_NE(result.status().message().find("cannot open"),
              std::string::npos);
    // The errno text, e.g. "No such file or directory".
    EXPECT_NE(result.status().message().find("o such file"),
              std::string::npos);
}

TEST(TraceIo, UnwritablePathReportsErrnoText)
{
    const Status status =
        writeTraceFile(sampleTrace(), "/nonexistent/dir/trace.dxt");
    ASSERT_FALSE(status.ok());
    EXPECT_EQ(status.code(), StatusCode::IoError);
    EXPECT_NE(status.message().find("o such file"), std::string::npos);
}

} // namespace
} // namespace dynex

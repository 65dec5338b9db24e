/**
 * @file
 * Tests of TraceDecoder's two byte sources. A regular file is mapped
 * and decoded as a memory span; an istringstream (seekable) and a
 * FaultyStream (a pipe) are read in chunks. For DXT1, DXT2 and DXT3,
 * valid, truncated, CRC-broken, resealed-corrupt and trailing-byte
 * images must give identical records or an identical Status on every
 * source, except where the streaming contract itself tells a sized
 * source from a pipe.
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <sstream>
#include <utility>

#include "../util/faulty_stream.h"
#include "trace/trace_io.h"
#include "util/crc32.h"

namespace dynex
{
namespace
{

constexpr TraceFormat kFormats[] = {TraceFormat::Dxt1, TraceFormat::Dxt2,
                                    TraceFormat::Dxt3};

const char *
formatName(TraceFormat format)
{
    return format == TraceFormat::Dxt1   ? "dxt1"
           : format == TraceFormat::Dxt2 ? "dxt2"
                                         : "dxt3";
}

Trace
sampleTrace(std::size_t refs = 5000)
{
    Trace trace("mapped");
    for (std::size_t i = 0; i < refs; ++i)
        trace.append(ifetch(0x1000 + 4 * static_cast<Addr>(i)));
    return trace;
}

std::string
imageOf(const Trace &trace, TraceFormat format)
{
    std::ostringstream out;
    EXPECT_TRUE(writeTrace(trace, out, format).ok());
    return out.str();
}

/** RAII temp file holding @p image, unlinked on destruction. */
struct TempTraceFile
{
    std::string path;

    TempTraceFile(const std::string &stem, const std::string &image)
        : path(::testing::TempDir() + "/dynex_mmap_" + stem)
    {
        std::ofstream(path, std::ios::binary | std::ios::trunc)
            .write(image.data(), static_cast<std::streamsize>(image.size()));
    }
    ~TempTraceFile() { std::remove(path.c_str()); }
};

void
expectSameResult(const Result<Trace> &got, const Result<Trace> &want,
                 const std::string &label)
{
    ASSERT_EQ(got.ok(), want.ok())
        << label << ": " << got.status().toString() << " vs "
        << want.status().toString();
    if (!want.ok()) {
        EXPECT_EQ(got.status().code(), want.status().code()) << label;
        EXPECT_EQ(got.status().message(), want.status().message())
            << label;
        return;
    }
    EXPECT_EQ(got->name(), want->name()) << label;
    EXPECT_EQ(got->records(), want->records()) << label;
}

/** What each source makes of one image. */
struct SourceResults
{
    bool mapped = false;
    std::string path;
    Result<Trace> file = Status::internal("unset");
    Result<Trace> span = Status::internal("unset");
    Result<Trace> sized = Status::internal("unset");
    Result<Trace> pipe = Status::internal("unset");
};

SourceResults
decodeEverywhere(const std::string &stem, const std::string &image)
{
    SourceResults results;
    const TempTraceFile file(stem, image);
    results.path = file.path;
    {
        TraceDecoder decoder(file.path);
        results.file = decodeTrace(decoder);
        results.mapped = decoder.mapped();
    }
    TraceDecoder span(std::span<const unsigned char>(
        reinterpret_cast<const unsigned char *>(image.data()),
        image.size()));
    results.span = decodeTrace(span);
    std::istringstream sized(image);
    results.sized = readTrace(sized);
    test::FaultyStream pipe(image, image.size(), test::FaultKind::ShortRead);
    results.pipe = readTrace(pipe);
    return results;
}

/** The file is mapped, and every source agrees on @p image; a file's
 * failure carries its path. */
void
expectSourcesAgree(const std::string &stem, const std::string &image,
                   bool pipe_agrees = true)
{
    SCOPED_TRACE(stem);
    const SourceResults results = decodeEverywhere(stem, image);
    EXPECT_EQ(results.mapped, !image.empty());
    const Result<Trace> sized_in_file =
        results.sized.ok() ? results.sized
                           : Result<Trace>(results.sized.status()
                                               .withContext(results.path));
    expectSameResult(results.file, sized_in_file, "file");
    expectSameResult(results.span, results.sized, "span");
    if (pipe_agrees)
        expectSameResult(results.pipe, results.sized, "pipe");
}

/** @p image with its DXT2/DXT3 header and payload CRCs recomputed. */
std::string
resealed(std::string image)
{
    const auto put = [&](std::size_t at, std::uint32_t crc) {
        for (int i = 0; i < 4; ++i)
            image[at + i] = static_cast<char>((crc >> (8 * i)) & 0xff);
    };
    put(16, crc32Of(image.data(), 16));
    put(image.size() - 4, crc32Of(image.data() + 20, image.size() - 24));
    return image;
}

TEST(MmapIo, MapsDxt2AndMatchesStreamingReader)
{
    const Trace original = sampleTrace();
    const std::string image = imageOf(original, TraceFormat::Dxt2);
    expectSourcesAgree("valid.dxt2", image);
    const SourceResults results = decodeEverywhere("valid.dxt2", image);
    ASSERT_TRUE(results.file.ok()) << results.file.status().toString();
    EXPECT_EQ(results.file->name(), original.name());
    EXPECT_EQ(results.file->records(), original.records());
}

TEST(MmapIo, MapsDxt3AndMatchesStreamingReader)
{
    // Several 4096-record blocks, all three reference types, and
    // access sizes that need DXT3's size escape.
    Trace original("mapped3");
    for (std::size_t i = 0; i < 3 * 4096 + 77; ++i) {
        const auto size = static_cast<std::uint8_t>(i % 256);
        switch (i % 3) {
          case 0:
            original.append(ifetch(0x400000 + 4 * (i % 9000)));
            break;
          case 1:
            original.append(load(0x10000000 - 8 * i, size));
            break;
          default:
            original.append(store((Addr{1} << 60) + 16 * i, size));
            break;
        }
    }
    const std::string image = imageOf(original, TraceFormat::Dxt3);
    expectSourcesAgree("valid.dxt3", image);
    const SourceResults results = decodeEverywhere("valid.dxt3", image);
    ASSERT_TRUE(results.file.ok()) << results.file.status().toString();
    EXPECT_EQ(results.file->name(), original.name());
    EXPECT_EQ(results.file->records(), original.records());
}

TEST(MmapIo, ImageDecoderYieldsBlocksInMemory)
{
    // The decoder runs on any in-memory image: blocks of at most
    // kTraceBlockRecords, then an empty block once the payload CRC
    // has been checked.
    const Trace original = sampleTrace(2 * 4096 + 5);
    for (const TraceFormat format : kFormats) {
        SCOPED_TRACE(formatName(format));
        const std::string image = imageOf(original, format);
        TraceDecoder decoder(std::span<const unsigned char>(
            reinterpret_cast<const unsigned char *>(image.data()),
            image.size()));
        ASSERT_TRUE(decoder.open().ok());
        EXPECT_FALSE(decoder.mapped());
        EXPECT_EQ(decoder.name(), original.name());
        // The span vouches for the count, so the reserve is exact.
        EXPECT_EQ(decoder.reserveRecords(), original.size());
        std::vector<std::size_t> blocks;
        std::vector<MemRef> records;
        std::span<const MemRef> block;
        for (;;) {
            ASSERT_TRUE(decoder.next(block).ok());
            if (block.empty())
                break;
            blocks.push_back(block.size());
            records.insert(records.end(), block.begin(), block.end());
        }
        EXPECT_EQ(blocks, (std::vector<std::size_t>{4096, 4096, 5}));
        EXPECT_EQ(records, original.records());
        ASSERT_TRUE(decoder.next(block).ok());
        EXPECT_TRUE(block.empty());
    }
}

TEST(MmapIo, TruncatedFileGivesTheStreamingStatus)
{
    for (const TraceFormat format : kFormats) {
        const std::string image = imageOf(sampleTrace(), format);
        for (const std::size_t keep :
             {std::size_t{0}, std::size_t{3}, std::size_t{18},
              image.size() / 2, image.size() - 1}) {
            const std::string stem = std::string("trunc.") +
                                     formatName(format) + "." +
                                     std::to_string(keep);
            const std::string chopped = image.substr(0, keep);
            // Past the header, DXT1/DXT2 check the count against a
            // sized source's bytes up front; a pipe runs out of
            // records (or of the payload CRC) instead.
            const bool sized_only = format != TraceFormat::Dxt3 && keep > 18;
            expectSourcesAgree(stem, chopped, !sized_only);
            if (!sized_only)
                continue;
            const SourceResults results = decodeEverywhere(stem, chopped);
            ASSERT_FALSE(results.file.ok());
            EXPECT_EQ(results.file.status().code(),
                      StatusCode::ResourceLimit);
            EXPECT_NE(results.file.status().message().find("remain"),
                      std::string::npos);
            ASSERT_FALSE(results.pipe.ok());
            EXPECT_EQ(results.pipe.status().code(), StatusCode::CorruptInput);
            EXPECT_EQ(results.pipe.status().message().rfind("truncated ", 0),
                      0u)
                << results.pipe.status().toString();
        }
    }
}

TEST(MmapIo, CorruptPayloadGivesTheStreamingStatus)
{
    const Trace original = sampleTrace(100);
    for (const TraceFormat format : kFormats) {
        const std::string name = formatName(format);
        const std::string image = imageOf(original, format);

        // A flipped payload byte: a CRC mismatch (DXT1 has none, so
        // its flip lands on a type byte instead).
        std::string flipped = image;
        flipped[format == TraceFormat::Dxt1 ? 4 + 4 + 6 + 8 + 8 : 64] ^=
            0x7f;
        expectSourcesAgree("payload." + name, flipped);

        // A trailing byte is not read: every source accepts the image.
        expectSourcesAgree("trailing." + name, image + '\0');
        const SourceResults trailing =
            decodeEverywhere("trailing." + name, image + '\0');
        ASSERT_TRUE(trailing.file.ok());
        EXPECT_EQ(trailing.file->records(), original.records());

        if (format == TraceFormat::Dxt1)
            continue;
        std::string header = image;
        header[9] ^= 0x40; // the count; the header CRC must catch it
        expectSourcesAgree("header." + name, header);
        const SourceResults bad_header =
            decodeEverywhere("header." + name, header);
        ASSERT_FALSE(bad_header.file.ok());
        EXPECT_NE(bad_header.file.status().message().find(
                      "header crc mismatch"),
                  std::string::npos);
    }

    // A corrupt DXT3 block behind valid CRCs: the first block's first
    // meta byte gets type 3, then both CRCs are recomputed.
    std::string block = imageOf(original, TraceFormat::Dxt3);
    block[20 + original.name().size() + 4] = static_cast<char>(0xc0);
    block = resealed(block);
    expectSourcesAgree("resealed.dxt3", block);
    const SourceResults results = decodeEverywhere("resealed.dxt3", block);
    ASSERT_FALSE(results.file.ok());
    EXPECT_EQ(results.file.status().code(), StatusCode::CorruptInput);
    EXPECT_NE(results.file.status().message().find(
                  "invalid reference type"),
              std::string::npos);
}

TEST(MmapIo, EveryFormatMapsAndMatchesTheStream)
{
    const Trace original = sampleTrace(2000);
    for (const TraceFormat format : kFormats) {
        const std::string image = imageOf(original, format);
        expectSourcesAgree(std::string("every.") + formatName(format),
                           image);
        const SourceResults results = decodeEverywhere(
            std::string("every.") + formatName(format), image);
        EXPECT_TRUE(results.mapped);
        ASSERT_TRUE(results.file.ok()) << results.file.status().toString();
        EXPECT_EQ(results.file->records(), original.records());
    }
}

TEST(MmapIo, MissingFileIsAnIoError)
{
    const std::string path = ::testing::TempDir() + "/dynex_no_such.dxt";
    TraceDecoder decoder(path);
    EXPECT_FALSE(decoder.mapped());
    const Status status = decoder.open();
    EXPECT_EQ(status.code(), StatusCode::IoError);
    EXPECT_EQ(status.message().rfind("cannot open " + path + ": ", 0), 0u)
        << status.toString();
    const auto result = readTraceFile(path);
    ASSERT_FALSE(result.ok());
    EXPECT_EQ(result.status().message(), status.message());
}

} // namespace
} // namespace dynex

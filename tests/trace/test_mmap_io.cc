/** @file Tests of the mmap'd zero-copy trace reader and its fallback. */

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <sstream>
#include <utility>

#include "trace/mmap_io.h"
#include "trace/trace_io.h"

namespace dynex
{
namespace
{

Trace
sampleTrace(std::size_t refs = 5000)
{
    Trace trace("mapped");
    for (std::size_t i = 0; i < refs; ++i)
        trace.append(ifetch(0x1000 + 4 * static_cast<Addr>(i)));
    return trace;
}

/** RAII temp file that unlinks itself. */
struct TempTraceFile
{
    std::string path;

    explicit TempTraceFile(const char *stem)
        : path(::testing::TempDir() + "/" + stem)
    {
    }
    ~TempTraceFile() { std::remove(path.c_str()); }
};

TEST(MmapIo, MapsDxt2AndMatchesStreamingReader)
{
    const Trace original = sampleTrace();
    TempTraceFile file("dynex_mmap_test.dxt");
    ASSERT_TRUE(writeTraceFile(original, file.path).ok());

    TraceReadPath read_path = TraceReadPath::Streamed;
    const auto mapped = readTraceFileFast(file.path, &read_path);
    ASSERT_TRUE(mapped.ok()) << mapped.status().toString();
    EXPECT_EQ(read_path, TraceReadPath::Mapped);

    const auto streamed = readTraceFile(file.path);
    ASSERT_TRUE(streamed.ok());
    EXPECT_EQ(mapped->name(), streamed->name());
    ASSERT_EQ(mapped->size(), streamed->size());
    for (std::size_t i = 0; i < mapped->size(); ++i)
        ASSERT_EQ((*mapped)[i], (*streamed)[i]) << "record " << i;
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
    TempTraceFile file("dynex_mmap_test.dxt3");
    ASSERT_TRUE(
        writeTraceFile(original, file.path, TraceFormat::Dxt3).ok());

    TraceReadPath read_path = TraceReadPath::Streamed;
    const auto mapped = readTraceFileFast(file.path, &read_path);
    ASSERT_TRUE(mapped.ok()) << mapped.status().toString();
    EXPECT_EQ(read_path, TraceReadPath::Mapped);
    EXPECT_EQ(mapped->name(), original.name());
    EXPECT_EQ(mapped->records(), original.records());
}

TEST(MmapIo, ImageDecoderYieldsBlocksInMemory)
{
    // The decoder runs on any in-memory image: blocks of at most
    // kImageBlockRecords, then an empty block with ok() set.
    const Trace original = sampleTrace(2 * 4096 + 5);
    for (const TraceFormat format : {TraceFormat::Dxt2, TraceFormat::Dxt3}) {
        std::ostringstream out;
        ASSERT_TRUE(writeTrace(original, out, format).ok());
        const std::string image = out.str();
        const auto *data =
            reinterpret_cast<const unsigned char *>(image.data());
        TraceImageDecoder decoder;
        ASSERT_TRUE(decoder.open(data, image.size()));
        EXPECT_EQ(decoder.name(), original.name());
        EXPECT_EQ(decoder.count(), original.size());
        std::vector<std::size_t> blocks;
        std::vector<MemRef> records;
        for (auto block = decoder.next(); !block.empty();
             block = decoder.next()) {
            blocks.push_back(block.size());
            records.insert(records.end(), block.begin(), block.end());
        }
        EXPECT_TRUE(decoder.ok());
        EXPECT_EQ(blocks, (std::vector<std::size_t>{4096, 4096, 5}));
        EXPECT_EQ(records, original.records());

        // A byte appended, or one missing, is not this image: the
        // decoder refuses it (the streaming reader reports the rest).
        std::string longer = image + '\0';
        EXPECT_FALSE(TraceImageDecoder().open(
            reinterpret_cast<const unsigned char *>(longer.data()),
            longer.size()));
        EXPECT_FALSE(decodeTraceImage(data, image.size() - 1));
    }
}

TEST(MmapIo, TruncatedFileFallsBackToStreamingStatus)
{
    const Trace original = sampleTrace();
    TempTraceFile file("dynex_mmap_trunc.dxt");
    ASSERT_TRUE(writeTraceFile(original, file.path).ok());

    // Chop the tail off: the mapped decoder must refuse the image and
    // the fallback must report the streaming reader's CorruptInput.
    std::ifstream in(file.path, std::ios::binary);
    std::string bytes((std::istreambuf_iterator<char>(in)),
                      std::istreambuf_iterator<char>());
    in.close();
    bytes.resize(bytes.size() / 2);
    std::ofstream out(file.path, std::ios::binary | std::ios::trunc);
    out.write(bytes.data(),
              static_cast<std::streamsize>(bytes.size()));
    out.close();

    TraceReadPath read_path = TraceReadPath::Mapped;
    const auto result = readTraceFileFast(file.path, &read_path);
    ASSERT_FALSE(result.ok());
    EXPECT_EQ(read_path, TraceReadPath::Streamed);
    const StatusCode code = result.status().code();
    EXPECT_TRUE(code == StatusCode::CorruptInput ||
                code == StatusCode::ResourceLimit)
        << result.status().toString();
}

TEST(MmapIo, CorruptPayloadIsRejectedNotMapped)
{
    const Trace original = sampleTrace(100);
    TempTraceFile file("dynex_mmap_corrupt.dxt");
    ASSERT_TRUE(writeTraceFile(original, file.path).ok());
    {
        std::fstream io(file.path,
                        std::ios::binary | std::ios::in | std::ios::out);
        io.seekp(64);
        io.put('\x7f');
    }
    TraceReadPath read_path = TraceReadPath::Mapped;
    const auto result = readTraceFileFast(file.path, &read_path);
    ASSERT_FALSE(result.ok());
    EXPECT_EQ(read_path, TraceReadPath::Streamed);
    EXPECT_EQ(result.status().code(), StatusCode::CorruptInput);
}

TEST(MmapIo, NonDxt2FormatsFallBackAndStillLoad)
{
    // DXT3 maps like DXT2; the legacy DXT1 still streams.
    const Trace original = sampleTrace(2000);
    const std::pair<TraceFormat, TraceReadPath> cases[] = {
        {TraceFormat::Dxt1, TraceReadPath::Streamed},
        {TraceFormat::Dxt3, TraceReadPath::Mapped},
    };
    for (const auto &[format, expected_path] : cases) {
        TempTraceFile file("dynex_mmap_other.dxt");
        ASSERT_TRUE(
            writeTraceFile(original, file.path, format).ok());
        TraceReadPath read_path = TraceReadPath::Mapped;
        const auto result = readTraceFileFast(file.path, &read_path);
        ASSERT_TRUE(result.ok()) << result.status().toString();
        EXPECT_EQ(read_path, expected_path);
        ASSERT_EQ(result->size(), original.size());
        EXPECT_EQ((*result)[1999], original[1999]);
    }
}

TEST(MmapIo, MissingFileIsAnIoError)
{
    const auto result =
        readTraceFileFast(::testing::TempDir() + "/dynex_no_such.dxt");
    ASSERT_FALSE(result.ok());
    EXPECT_EQ(result.status().code(), StatusCode::IoError);
}

} // namespace
} // namespace dynex

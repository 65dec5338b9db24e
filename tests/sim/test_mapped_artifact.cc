/**
 * @file
 * Equivalence tests of replay artifacts packed straight from a
 * DXT1/DXT2/DXT3 file against ones built from the decoded Trace: ids,
 * per-block set words, distinct count, next-use ticks and kernel
 * triads must match exactly at every line size, including a run that
 * straddles a decode block, the 2^64-1 sentinel block at 1-byte lines
 * and an empty trace. Also covers what a file-built artifact charges,
 * that a file it cannot decode fails with readTraceFile's exact
 * Status, and the per-leg engine's InvalidArgument legs.
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <iterator>

#include "obs/metrics.h"
#include "obs/trace_events.h"
#include "sim/kernel.h"
#include "sim/sweep.h"
#include "trace/trace_io.h"
#include "util/crc32.h"
#include "util/rng.h"

namespace dynex
{
namespace
{

/** RAII temp file holding @p trace in @p format, named after the
 * stem and the trace (ctest runs the tests in parallel processes). */
struct TraceFile
{
    std::string path;

    TraceFile(const Trace &trace, TraceFormat format, const char *stem)
        : path(::testing::TempDir() + "/" + stem + "_" + trace.name() +
               (format == TraceFormat::Dxt3   ? ".dxt3"
                : format == TraceFormat::Dxt1 ? ".dxt1"
                                              : ".dxt2"))
    {
        const Status status = writeTraceFile(trace, path, format);
        EXPECT_TRUE(status.ok()) << status.toString();
    }
    ~TraceFile() { std::remove(path.c_str()); }
};

/** A program-like trace: loops over code with data references, sizes
 * that need DXT3's size escape, a run of one block that straddles the
 * first 4096-record decode block, and sparse high addresses. */
Trace
mixedTrace(std::size_t refs)
{
    Rng rng(0xa11f);
    Trace trace("mixed");
    Addr pc = 0x400000;
    while (trace.size() < refs) {
        if (trace.size() == 4090) {
            // References 4090..4109 share one block at every line.
            for (int r = 0; r < 20; ++r)
                trace.append(ifetch(0x7000));
            continue;
        }
        switch (rng.nextBelow(8)) {
          case 0:
            trace.append(load(0x10000000 + 8 * rng.nextBelow(4096), 8));
            break;
          case 1:
            trace.append(store((rng.nextBelow(4) << 50) +
                                   4 * rng.nextBelow(512),
                               static_cast<std::uint8_t>(
                                   rng.nextBelow(256))));
            break;
          case 2:
            pc = 0x400000 + 4 * rng.nextBelow(8192);
            [[fallthrough]];
          default:
            trace.append(ifetch(pc));
            pc += 4;
            break;
        }
    }
    return trace;
}

/** The sentinel trace of KernelDifferential at 1-byte lines: block
 * 2^64-1 leads, repeats in runs and conflicts with its neighbours. */
Trace
sentinelTrace()
{
    Trace trace("sentinel");
    for (int r = 0; r < 500; ++r)
        for (const Addr addr :
             {kAddrInvalid, kAddrInvalid, Addr{0x10}, Addr{0x410},
              Addr{0x10}, kAddrInvalid - 0x400, kAddrInvalid,
              Addr{0x410}, Addr{0x410}, Addr{0x10}})
            trace.append(load(addr, 1));
    return trace;
}

std::vector<TriadResult>
kernelTriads(const ReplayArtifact &artifact,
             const std::vector<std::uint64_t> &sizes,
             const DynamicExclusionConfig &config)
{
    TriadBatchOutcome outcome =
        replayTriadKernel(artifact, sizes, config, "mapped");
    throwIfFailed(outcome.failures);
    return std::move(outcome.triads);
}

void
expectStatsEq(const CacheStats &got, const CacheStats &want,
              const std::string &label)
{
    EXPECT_EQ(got.accesses, want.accesses) << label;
    EXPECT_EQ(got.hits, want.hits) << label;
    EXPECT_EQ(got.coldMisses, want.coldMisses) << label;
    EXPECT_EQ(got.fills, want.fills) << label;
    EXPECT_EQ(got.bypasses, want.bypasses) << label;
    EXPECT_EQ(got.evictions, want.evictions) << label;
}

/** The file-built artifact of @p trace equals its Trace-built one in
 * every array and every kernel triad, in every format and at lines
 * 1, 4, 16 and 64. */
void
expectMappedMatchesTrace(const Trace &trace)
{
    const std::vector<std::uint64_t> sizes = {256, 1024, 8192, 65536};
    for (const TraceFormat format :
         {TraceFormat::Dxt1, TraceFormat::Dxt2, TraceFormat::Dxt3}) {
        const TraceFile file(trace, format, "dynex_mapped_artifact");
        for (const std::uint32_t line : {1u, 4u, 16u, 64u}) {
            const std::string label =
                trace.name() +
                (format == TraceFormat::Dxt3   ? " dxt3 "
                 : format == TraceFormat::Dxt1 ? " dxt1 "
                                               : " dxt2 ") +
                std::to_string(line) + "B";
            SCOPED_TRACE(label);
            const auto want = buildReplayArtifact(trace, line, "want");
            const auto built = buildReplayArtifact(file.path, line);
            ASSERT_TRUE(built.ok()) << built.status().toString();
            const auto &got = *built;
            EXPECT_EQ(got->name(), trace.name());
            EXPECT_EQ(got->trace(), nullptr);
            EXPECT_EQ(want->trace(), &trace);
            EXPECT_EQ(got->lineBytes(), line);
            ASSERT_EQ(got->refs(), trace.size());
            const PackedTraceView &gv = got->view();
            const PackedTraceView &wv = want->view();
            ASSERT_EQ(gv.distinctBlocks(), wv.distinctBlocks());
            for (std::size_t i = 0; i < trace.size(); ++i) {
                ASSERT_EQ(gv.ids()[i], wv.ids()[i]) << "ref " << i;
                ASSERT_EQ(got->index().ticks()[i], want->index().ticks()[i])
                    << "ref " << i;
            }
            for (std::size_t id = 0; id < wv.distinctBlocks(); ++id) {
                ASSERT_EQ(gv.blockSetWords()[id], wv.blockSetWords()[id])
                    << "id " << id;
                ASSERT_EQ(got->sharing().sharedLowBits()[id],
                          want->sharing().sharedLowBits()[id])
                    << "id " << id;
            }
            for (unsigned k = 0; k <= 32; ++k) {
                const SetSharing::Tally &g = got->sharing().privateAt(k);
                const SetSharing::Tally &w = want->sharing().privateAt(k);
                EXPECT_EQ(g.blocks, w.blocks) << "k " << k;
                EXPECT_EQ(g.refs, w.refs) << "k " << k;
                EXPECT_EQ(g.runStarts, w.runStarts) << "k " << k;
            }
            // 8 bytes per reference, 5 per distinct block (set word and
            // shared bit count), the shared counts' 3-byte tail and the
            // sharing histograms.
            EXPECT_EQ(got->bytes(),
                      8 * trace.size() + 5 * gv.distinctBlocks() + 3 +
                          (SetSharing::kBuckets + 1) *
                              sizeof(SetSharing::Tally));
            EXPECT_EQ(got->bytes(), want->bytes());

            DynamicExclusionConfig config;
            config.useLastLine = line > 4;
            const auto got_triads = kernelTriads(*got, sizes, config);
            const auto want_triads = kernelTriads(*want, sizes, config);
            for (std::size_t s = 0; s < sizes.size(); ++s) {
                const std::string at = std::to_string(sizes[s]) + "B";
                expectStatsEq(got_triads[s].dm, want_triads[s].dm,
                              "dm " + at);
                expectStatsEq(got_triads[s].de, want_triads[s].de,
                              "de " + at);
                expectStatsEq(got_triads[s].opt, want_triads[s].opt,
                              "opt " + at);
                for (std::size_t e = 0; e < 5; ++e)
                    EXPECT_EQ(got_triads[s].deEvents.byEvent[e],
                              want_triads[s].deEvents.byEvent[e])
                        << at << " event " << e;
            }
        }
    }
}

TEST(MappedArtifact, MatchesTheTraceBuiltArtifact)
{
    // Three decode blocks and a partial fourth; the run at 4090..4109
    // straddles the first block boundary.
    expectMappedMatchesTrace(mixedTrace(3 * 4096 + 1000));
}

TEST(MappedArtifact, SentinelBlockMatchesAtByteLines)
{
    expectMappedMatchesTrace(sentinelTrace());
}

TEST(MappedArtifact, EmptyTraceMatches)
{
    expectMappedMatchesTrace(Trace("empty"));
}

/** The artifact builder fails on @p path with exactly the Status
 * readTraceFile reports. */
void
expectReadTraceFileStatus(const std::string &path, const char *label)
{
    const auto built = buildReplayArtifact(path, 4);
    const auto read = readTraceFile(path);
    ASSERT_FALSE(read.ok()) << label;
    ASSERT_FALSE(built.ok()) << label;
    EXPECT_EQ(built.status().code(), read.status().code()) << label;
    EXPECT_EQ(built.status().message(), read.status().message()) << label;
}

/** Overwrite the file at @p path with @p image. */
void
rewrite(const std::string &path, const std::string &image)
{
    std::ofstream(path, std::ios::binary | std::ios::trunc)
        .write(image.data(), static_cast<std::streamsize>(image.size()));
}

std::string
slurp(const std::string &path)
{
    std::ifstream in(path, std::ios::binary);
    return std::string((std::istreambuf_iterator<char>(in)),
                       std::istreambuf_iterator<char>());
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

TEST(MappedArtifact, RefusesWhatItCannotDecode)
{
    const Trace trace = mixedTrace(5000);
    expectReadTraceFileStatus(::testing::TempDir() + "/dynex_no_such.dxt",
                              "missing");
    {
        TraceFile file(trace, TraceFormat::Dxt2, "dynex_mapped_text");
        rewrite(file.path, "2 400000\n0 1000\n");
        expectReadTraceFileStatus(file.path, "text");
    }
    {
        // Truncated DXT2: the count is checked against the file size.
        TraceFile file(trace, TraceFormat::Dxt2, "dynex_mapped_trunc2");
        const std::string image = slurp(file.path);
        rewrite(file.path, image.substr(0, image.size() - 100));
        expectReadTraceFileStatus(file.path, "truncated dxt2");
    }
    {
        TraceFile file(trace, TraceFormat::Dxt2, "dynex_mapped_hdr");
        std::string image = slurp(file.path);
        image[9] ^= 0x40;
        rewrite(file.path, image);
        expectReadTraceFileStatus(file.path, "header crc");
    }

    // A truncated DXT3 image, and one whose corrupt block still
    // carries valid CRCs: both fail with the decoder's CorruptInput.
    for (const bool reseal : {false, true}) {
        const TraceFile file(trace, TraceFormat::Dxt3, "dynex_mapped_bad");
        std::string image = slurp(file.path);
        if (reseal) {
            // The first block's first meta byte gets type 3 (invalid).
            image[20 + trace.name().size() + 4] = static_cast<char>(0xc0);
            image = resealed(image);
        } else {
            image.resize(image.size() - 100);
        }
        rewrite(file.path, image);
        expectReadTraceFileStatus(file.path, reseal ? "resealed" : "short");
        EXPECT_EQ(readTraceFile(file.path).status().code(),
                  StatusCode::CorruptInput);
    }
}

TEST(MappedArtifact, ForgedCountReportsTheDecoderStatus)
{
    // A header claiming 2^32 + 5 references over a short file: the
    // decoder's own error comes first, never the 2^32 limit (DXT2
    // refuses the count against the file size, DXT3 runs out of
    // blocks).
    const Trace trace = mixedTrace(5000);
    for (const TraceFormat format : {TraceFormat::Dxt2, TraceFormat::Dxt3}) {
        const TraceFile file(trace, format, "dynex_mapped_forged");
        std::string image = slurp(file.path);
        const std::uint64_t forged = (std::uint64_t{1} << 32) + 5;
        for (int i = 0; i < 8; ++i)
            image[8 + i] = static_cast<char>((forged >> (8 * i)) & 0xff);
        rewrite(file.path, resealed(image));
        expectReadTraceFileStatus(file.path, "forged");
        EXPECT_NE(buildReplayArtifact(file.path, 4).status().code(),
                  StatusCode::Internal);
    }
}

TEST(MappedArtifact, ChargesDecodeAsLoadAndPackAsIndex)
{
    const Trace trace = mixedTrace(10000);
    const TraceFile file(trace, TraceFormat::Dxt3, "dynex_mapped_obs");
    obs::Tracer tracer;
    obs::MetricsCollector metrics;
    obs::Tracer::setActive(&tracer);
    Result<std::shared_ptr<const ReplayArtifact>> built =
        Status::internal("unset");
    {
        obs::ScopedMetrics install(&metrics);
        built = buildReplayArtifact(file.path, 4);
    }
    obs::Tracer::setActive(nullptr);
    ASSERT_TRUE(built.ok()) << built.status().toString();
    EXPECT_EQ(metrics.total(obs::Counter::TraceLoadRefs), trace.size());
    EXPECT_GT(metrics.total(obs::Counter::TraceLoadNs), 0u);
    EXPECT_GT(metrics.total(obs::Counter::IndexBuildNs), 0u);
    EXPECT_EQ(metrics.total(obs::Counter::IndexBuilds), 1u);
    std::size_t index_spans = 0, decode_spans = 0;
    for (const obs::TraceEvent &event : tracer.sortedEvents()) {
        index_spans += std::string(event.category) == "index";
        decode_spans += std::string(event.category) == "load";
    }
    EXPECT_EQ(index_spans, 1u);
    EXPECT_EQ(decode_spans, 3u); // 10000 records in 4096-record blocks
}

TEST(MappedArtifact, PerLegEngineFailsEveryLegWithoutTheTrace)
{
    // The per-leg engine replays a decoded Trace; a file-built
    // artifact has none, so every leg fails cleanly instead.
    const Trace trace = mixedTrace(5000);
    const TraceFile file(trace, TraceFormat::Dxt2, "dynex_mapped_perleg");
    const auto built = buildReplayArtifact(file.path, 4);
    ASSERT_TRUE(built.ok()) << built.status().toString();
    const ReplayArtifact &artifact = **built;
    const std::vector<std::uint64_t> sizes = {256, 1024, 4096};
    const SizeSweepOutcome outcome =
        sweepSizes(artifact, sizes, {}, ReplayEngine::PerLeg);
    ASSERT_EQ(outcome.failures.size(), sizes.size());
    for (std::size_t s = 0; s < sizes.size(); ++s) {
        EXPECT_FALSE(outcome.ok[s]);
        EXPECT_EQ(outcome.points[s].sizeBytes, sizes[s]);
        EXPECT_EQ(outcome.failures[s].bench, trace.name());
        EXPECT_EQ(outcome.failures[s].sizeBytes, sizes[s]);
        EXPECT_EQ(outcome.failures[s].status.code(),
                  StatusCode::InvalidArgument)
            << outcome.failures[s].status.toString();
    }
    // The kernel replays the same artifact.
    EXPECT_TRUE(sweepSizes(artifact, sizes, {}).allOk());
}

} // namespace
} // namespace dynex

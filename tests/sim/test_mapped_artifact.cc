/**
 * @file
 * Equivalence tests of replay artifacts packed straight from a mapped
 * DXT2/DXT3 file against ones built from the decoded Trace: ids,
 * per-block set words, distinct count, next-use ticks and kernel
 * triads must match exactly at every line size, including a run that
 * straddles a decode block, the 2^64-1 sentinel block at 1-byte lines
 * and an empty trace. Also covers what a file-built artifact charges,
 * what it refuses, and the per-leg engine's InvalidArgument legs.
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <iterator>

#include "obs/metrics.h"
#include "obs/trace_events.h"
#include "sim/kernel.h"
#include "sim/parallel.h"
#include "sim/sweep.h"
#include "trace/mmap_io.h"
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
 * every array and every kernel triad, in both formats and at lines 1,
 * 4, 16 and 64. */
void
expectMappedMatchesTrace(const Trace &trace)
{
    const std::vector<std::uint64_t> sizes = {256, 1024, 8192, 65536};
    for (const TraceFormat format : {TraceFormat::Dxt2, TraceFormat::Dxt3}) {
        const TraceFile file(trace, format, "dynex_mapped_artifact");
        const MappedFile mapped(file.path);
        ASSERT_TRUE(mapped.mapped());
        for (const std::uint32_t line : {1u, 4u, 16u, 64u}) {
            const std::string label =
                trace.name() + (format == TraceFormat::Dxt3 ? " dxt3 "
                                                            : " dxt2 ") +
                std::to_string(line) + "B";
            SCOPED_TRACE(label);
            const auto want = buildReplayArtifact(trace, line, "want");
            const auto got = buildReplayArtifact(mapped, line);
            ASSERT_NE(got, nullptr);
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
            for (std::size_t id = 0; id < wv.distinctBlocks(); ++id)
                ASSERT_EQ(gv.blockSetWords()[id], wv.blockSetWords()[id])
                    << "id " << id;
            // 8 bytes per reference plus 4 per distinct block.
            EXPECT_EQ(got->bytes(),
                      8 * trace.size() + 4 * gv.distinctBlocks());
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

TEST(MappedArtifact, RefusesWhatItCannotDecode)
{
    const Trace trace = mixedTrace(5000);
    {
        // DXT1 is the streaming reader's alone.
        TraceFile file(trace, TraceFormat::Dxt1, "dynex_mapped_dxt1");
        EXPECT_EQ(buildReplayArtifact(MappedFile(file.path), 4), nullptr);
    }
    EXPECT_EQ(buildReplayArtifact(
                  MappedFile(::testing::TempDir() + "/dynex_no_such.dxt"),
                  4),
              nullptr);

    // A truncated image, and one whose corrupt block still carries
    // valid CRCs: both are refused, and the streaming reader names
    // the corruption.
    for (const bool reseal : {false, true}) {
        const TraceFile file(trace, TraceFormat::Dxt3, "dynex_mapped_bad");
        std::ifstream in(file.path, std::ios::binary);
        std::string image((std::istreambuf_iterator<char>(in)),
                          std::istreambuf_iterator<char>());
        in.close();
        if (reseal) {
            // The first block's first meta byte gets type 3 (invalid);
            // then both CRCs are recomputed over the new bytes.
            const std::size_t first_meta = 20 + trace.name().size() + 4;
            image[first_meta] = static_cast<char>(0xc0);
            const auto put = [&](std::size_t at, std::uint32_t crc) {
                for (int i = 0; i < 4; ++i)
                    image[at + i] =
                        static_cast<char>((crc >> (8 * i)) & 0xff);
            };
            put(16, crc32Of(image.data(), 16));
            put(image.size() - 4,
                crc32Of(image.data() + 20, image.size() - 24));
        } else {
            image.resize(image.size() - 100);
        }
        std::ofstream(file.path, std::ios::binary | std::ios::trunc)
            .write(image.data(), static_cast<std::streamsize>(image.size()));
        EXPECT_EQ(buildReplayArtifact(MappedFile(file.path), 4), nullptr)
            << "reseal " << reseal;
        const auto streamed = readTraceFile(file.path);
        ASSERT_FALSE(streamed.ok());
        EXPECT_EQ(streamed.status().code(), StatusCode::CorruptInput)
            << streamed.status().toString();
    }
}

TEST(MappedArtifact, ChargesDecodeAsLoadAndPackAsIndex)
{
    const Trace trace = mixedTrace(10000);
    const TraceFile file(trace, TraceFormat::Dxt3, "dynex_mapped_obs");
    obs::Tracer tracer;
    obs::MetricsCollector metrics;
    obs::Tracer::setActive(&tracer);
    std::shared_ptr<const ReplayArtifact> artifact;
    {
        obs::ScopedMetrics install(&metrics);
        artifact = buildReplayArtifact(MappedFile(file.path), 4);
    }
    obs::Tracer::setActive(nullptr);
    ASSERT_NE(artifact, nullptr);
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
    const auto artifact = buildReplayArtifact(MappedFile(file.path), 4);
    ASSERT_NE(artifact, nullptr);
    const std::vector<std::uint64_t> sizes = {256, 1024, 4096};
    const SizeSweepOutcome outcome =
        sweepSizes(*artifact, sizes, {}, ReplayEngine::PerLeg);
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
    EXPECT_TRUE(sweepSizes(*artifact, sizes, {}).allOk());
}

} // namespace
} // namespace dynex

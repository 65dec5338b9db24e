/**
 * @file
 * Fault-injection tests of the trace readers: short reads and device
 * errors at every interesting byte offset (via FaultyStream), and a
 * seeded-corruption smoke run of the fuzzer engine. Every injected
 * fault must surface as a structured Status — never a crash, hang, or
 * Internal error.
 */

#include <gtest/gtest.h>

#include <sstream>
#include <string>

#include "../util/faulty_stream.h"
#include "corruption_fuzzer.h"
#include "trace/text_io.h"
#include "trace/trace_io.h"

namespace dynex
{
namespace
{

using test::FaultKind;
using test::FaultyStream;

Trace
smallTrace()
{
    Trace trace("faulty");
    for (int i = 0; i < 50; ++i)
        trace.append(ifetch(0x1000 + 4 * static_cast<Addr>(i)));
    trace.append(load(0x8000, 8));
    trace.append(store(0x9000, 2));
    return trace;
}

std::string
imageOf(const Trace &trace, TraceFormat format)
{
    std::ostringstream out;
    EXPECT_TRUE(writeTrace(trace, out, format).ok());
    return out.str();
}

TEST(FaultyStreamHarness, FullImageThroughFaultlessStreamParses)
{
    // Sanity: with the fault past the end, the non-seekable stream
    // still round-trips both formats (the readers must not require
    // tellg/seekg to work).
    for (const TraceFormat format :
         {TraceFormat::Dxt1, TraceFormat::Dxt2}) {
        const std::string image = imageOf(smallTrace(), format);
        FaultyStream in(image, image.size(), FaultKind::ShortRead);
        const auto result = readTrace(in);
        ASSERT_TRUE(result.ok()) << result.status().toString();
        EXPECT_EQ(result->size(), smallTrace().size());
    }
}

TEST(FaultyStreamHarness, ShortReadAtEveryByteIsAStructuredError)
{
    for (const TraceFormat format :
         {TraceFormat::Dxt1, TraceFormat::Dxt2}) {
        const std::string image = imageOf(smallTrace(), format);
        for (std::size_t cut = 0; cut < image.size(); ++cut) {
            FaultyStream in(image, cut, FaultKind::ShortRead);
            const auto result = readTrace(in);
            ASSERT_FALSE(result.ok())
                << "cut at " << cut << " of " << image.size();
            EXPECT_EQ(result.status().code(), StatusCode::CorruptInput)
                << "cut at " << cut << ": "
                << result.status().toString();
        }
    }
}

TEST(FaultyStreamHarness, ReadErrorSurfacesAsIoError)
{
    const std::string image = imageOf(smallTrace(), TraceFormat::Dxt2);
    // Fail inside the magic, the header, the name, the records, and
    // the trailing CRC.
    for (const std::size_t at :
         {std::size_t{2}, std::size_t{10}, std::size_t{21},
          image.size() / 2, image.size() - 2}) {
        FaultyStream in(image, at, FaultKind::ReadError);
        const auto result = readTrace(in);
        ASSERT_FALSE(result.ok()) << "error at " << at;
        EXPECT_EQ(result.status().code(), StatusCode::IoError)
            << "error at " << at << ": " << result.status().toString();
        EXPECT_NE(result.status().message().find("read error"),
                  std::string::npos);
    }
}

TEST(FaultyStreamHarness, DinShortReadTruncatesCleanly)
{
    std::ostringstream out;
    ASSERT_TRUE(writeDinTrace(smallTrace(), out).ok());
    const std::string image = out.str();
    // Text truncation lands either on a clean line boundary (parses
    // with fewer records) or mid-line (corrupt-input) — both fine,
    // neither may crash or mis-categorize.
    for (std::size_t cut = 0; cut < image.size(); cut += 7) {
        FaultyStream in(image, cut, FaultKind::ShortRead);
        const auto result = readDinTrace(in, "t");
        if (!result.ok()) {
            EXPECT_EQ(result.status().code(), StatusCode::CorruptInput)
                << "cut at " << cut;
        }
    }
}

TEST(CorruptionFuzzer, SeededSmokeRunFindsNoContractViolations)
{
    const auto report = test::runCorruptionFuzzer(/*seed=*/1992,
                                                  /*iterations=*/300);
    EXPECT_EQ(report.iterations, 300u);
    for (const auto &violation : report.violations)
        ADD_FAILURE() << violation;
    // The corpus is CRC-protected DXT2 + DXT1 + din; most mutants must
    // be rejected, and rejection must be structured.
    EXPECT_GT(report.structuredErrors, 0u);
}

TEST(CorruptionFuzzer, IsDeterministicForAGivenSeed)
{
    const auto a = test::runCorruptionFuzzer(7, 100);
    const auto b = test::runCorruptionFuzzer(7, 100);
    EXPECT_EQ(a.cleanSuccesses, b.cleanSuccesses);
    EXPECT_EQ(a.structuredErrors, b.structuredErrors);
    EXPECT_EQ(a.violations, b.violations);
}

} // namespace
} // namespace dynex

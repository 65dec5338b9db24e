/**
 * @file
 * Deterministic corruption fuzzer over the trace readers, the
 * workload importers, and the campaign DSL parser. Starting from
 * valid DXT1, DXT2, DXT3, din, text, lackey, and .dxc images, a
 * seeded Rng applies byte flips and truncations and feeds each mutant
 * to the matching parser. Every mutation must yield either a clean
 * success (CRC-less formats can survive benign flips) or a
 * structured, non-Internal error — never a crash, hang, or unbounded
 * allocation. Every binary trace mutant is decoded from both of
 * TraceDecoder's byte sources, twice: as is, and with both CRCs
 * resealed so the mutation reaches the per-block checks behind them.
 * The memory span (what a mapped file decodes through) and the stream
 * must give the identical Result: the same records, or the same code
 * and message. A disagreement is a violation.
 * Shared between the gtest smoke test and the standalone fuzz binary
 * so both run the exact same corpus for a given seed.
 */

#ifndef DYNEX_TESTS_ROBUSTNESS_CORRUPTION_FUZZER_H
#define DYNEX_TESTS_ROBUSTNESS_CORRUPTION_FUZZER_H

#include <cstdint>
#include <sstream>
#include <string>
#include <vector>

#include "trace/text_io.h"
#include "trace/trace_io.h"
#include "util/crc32.h"
#include "util/rng.h"
#include "workload/campaign.h"
#include "workload/import.h"

namespace dynex::test
{

/** Tally of one fuzzing run. */
struct FuzzReport
{
    std::uint64_t iterations = 0;
    std::uint64_t cleanSuccesses = 0; ///< mutant still parsed fine
    std::uint64_t structuredErrors = 0;
    /** Mutations whose outcome broke the contract (an Internal error).
     * One line each: "<format> seed=<s> iter=<i>: <status>". */
    std::vector<std::string> violations;

    bool ok() const { return violations.empty(); }
};

namespace fuzz_detail
{

/** A seed corpus entry: a format label, the group it belongs to
 * ("trace" readers or the workload "import" surface), a valid image,
 * and a parser. */
struct Subject
{
    const char *format;
    const char *group;
    std::string image;
    // Returns the parse Status (Ok on success).
    Status (*parse)(const std::string &bytes);
};

inline Trace
corpusTrace()
{
    Trace trace("fuzz-corpus");
    Rng rng(0xc0ffee);
    for (int i = 0; i < 200; ++i) {
        const Addr addr = rng.next() & 0xffff'ffffull;
        switch (rng.nextBelow(3)) {
        case 0: trace.append(ifetch(addr)); break;
        case 1: trace.append(load(addr, 4)); break;
        default: trace.append(store(addr, 8)); break;
        }
    }
    return trace;
}

/** @p image with its DXT2/DXT3 header CRC and trailing payload CRC
 * recomputed over whatever bytes it now holds. */
inline std::string
resealed(std::string image)
{
    if (image.size() < 24)
        return image;
    const auto put = [&](std::size_t at, std::uint32_t crc) {
        for (int i = 0; i < 4; ++i)
            image[at + i] = static_cast<char>((crc >> (8 * i)) & 0xff);
    };
    put(16, crc32Of(image.data(), 16));
    put(image.size() - 4, crc32Of(image.data() + 20, image.size() - 24));
    return image;
}

/** Decode @p bytes from a memory span and from a stream: the stream's
 * Result when the two agree exactly, else an Internal status
 * describing the disagreement. */
inline Result<Trace>
decodeBothSources(const std::string &bytes)
{
    TraceDecoder span(std::span<const unsigned char>(
        reinterpret_cast<const unsigned char *>(bytes.data()),
        bytes.size()));
    const Result<Trace> mapped = decodeTrace(span);
    std::istringstream in(bytes);
    Result<Trace> streamed = readTrace(in);
    if (mapped.ok() != streamed.ok())
        return Status::internal(
            "span source says " + mapped.status().toString() +
            ", stream source says " + streamed.status().toString());
    if (!streamed.ok()) {
        if (mapped.status().code() != streamed.status().code() ||
            mapped.status().message() != streamed.status().message())
            return Status::internal(
                "span and stream sources fail differently: " +
                mapped.status().toString() + " vs " +
                streamed.status().toString());
    } else if (mapped->name() != streamed->name() ||
               mapped->records() != streamed->records()) {
        return Status::internal(
            "span and stream sources disagree on the records");
    }
    return streamed;
}

inline Status
parseBinary(const std::string &bytes)
{
    if (const Result<Trace> sealed = decodeBothSources(resealed(bytes));
        sealed.status().code() == StatusCode::Internal)
        return sealed.status().withContext("resealed");
    return decodeBothSources(bytes).status();
}

inline Status
parseDin(const std::string &bytes)
{
    std::istringstream in(bytes);
    return readDinTrace(in, "fuzz").status();
}

inline Status
parseImportText(const std::string &bytes)
{
    std::istringstream in(bytes);
    return workload::readTextTrace(in, "fuzz").status();
}

inline Status
parseImportLackey(const std::string &bytes)
{
    std::istringstream in(bytes);
    return workload::readLackeyTrace(in, "fuzz").status();
}

inline Status
parseCampaignSpec(const std::string &bytes)
{
    return workload::parseCampaign(bytes).status();
}

/** A valid campaign document exercising every statement kind, so
 * mutations can land in any production of the grammar. */
inline std::string
corpusCampaign()
{
    return "# fuzz corpus campaign\n"
           "campaign \"fuzz-corpus\" {\n"
           "  trace bench espresso;\n"
           "  trace file \"traces/li.dxt2\" as li;\n"
           "  trace import \"traces/gcc.txt\" format text as gcc;\n"
           "  trace import \"traces/cc1.lk\" format lackey;\n"
           "  models dm, dynex, opt;\n"
           "  sizes 1KB, 2KB, 4KB, 8KB;\n"
           "  lines 4, 16;\n"
           "  refs 100000;\n"
           "  engine kernel;\n"
           "  sticky 2;\n"
           "  output json \"out.json\";\n"
           "  output csv \"out.csv\";\n"
           "}\n";
}

inline std::vector<Subject>
buildCorpus()
{
    const Trace trace = corpusTrace();
    std::vector<Subject> corpus;
    {
        std::ostringstream out;
        writeTrace(trace, out, TraceFormat::Dxt1);
        corpus.push_back({"dxt1", "trace", out.str(), &parseBinary});
    }
    {
        std::ostringstream out;
        writeTrace(trace, out, TraceFormat::Dxt2);
        corpus.push_back({"dxt2", "trace", out.str(), &parseBinary});
    }
    {
        std::ostringstream out;
        writeTrace(trace, out, TraceFormat::Dxt3);
        corpus.push_back({"dxt3", "trace", out.str(), &parseBinary});
    }
    {
        std::ostringstream out;
        writeDinTrace(trace, out);
        corpus.push_back({"din", "trace", out.str(), &parseDin});
    }
    {
        std::ostringstream out;
        workload::writeTextTrace(trace, out);
        corpus.push_back(
            {"text", "import", out.str(), &parseImportText});
    }
    {
        std::ostringstream out;
        workload::writeLackeyTrace(trace, out);
        corpus.push_back(
            {"lackey", "import", out.str(), &parseImportLackey});
    }
    corpus.push_back(
        {"campaign", "import", corpusCampaign(), &parseCampaignSpec});
    return corpus;
}

/** Mutate @p image in place: a burst of byte flips, a truncation, an
 * extension, or a combination — all drawn from @p rng. */
inline void
mutate(std::string &image, Rng &rng)
{
    const auto kind = rng.nextBelow(4);
    if (kind == 0 || kind == 3) { // flip 1..8 bytes
        const std::uint64_t flips = 1 + rng.nextBelow(8);
        for (std::uint64_t f = 0; f < flips && !image.empty(); ++f) {
            const std::size_t at = rng.nextBelow(image.size());
            image[at] = static_cast<char>(
                image[at] ^ static_cast<char>(1 + rng.nextBelow(255)));
        }
    }
    if (kind == 1 || kind == 3) // truncate anywhere, including to empty
        image.resize(rng.nextBelow(image.size() + 1));
    if (kind == 2) { // append garbage
        const std::uint64_t extra = 1 + rng.nextBelow(32);
        for (std::uint64_t e = 0; e < extra; ++e)
            image.push_back(static_cast<char>(rng.next()));
    }
}

} // namespace fuzz_detail

/**
 * Run @p iterations seeded mutations across the corpus (trace
 * readers: dxt1/dxt2/dxt3/din; workload surface: text/lackey/
 * campaign). Iterations are split round-robin across the formats so a
 * small budget still covers all of them. A non-empty @p format
 * restricts the corpus to one format (e.g. "dxt3") or one group
 * ("trace", "import"), spending the whole budget on it.
 */
inline FuzzReport
runCorruptionFuzzer(std::uint64_t seed, std::uint64_t iterations,
                    const std::string &format = {})
{
    auto corpus = fuzz_detail::buildCorpus();
    if (!format.empty()) {
        std::erase_if(corpus, [&](const fuzz_detail::Subject &s) {
            return format != s.format && format != s.group;
        });
        if (corpus.empty()) {
            FuzzReport report;
            report.violations.push_back("unknown format " + format);
            return report;
        }
    }
    FuzzReport report;
    Rng rng(seed);
    for (std::uint64_t i = 0; i < iterations; ++i) {
        const auto &subject = corpus[i % corpus.size()];
        std::string mutant = subject.image;
        fuzz_detail::mutate(mutant, rng);
        const Status status = subject.parse(mutant);
        ++report.iterations;
        if (status.ok()) {
            ++report.cleanSuccesses;
        } else if (status.code() != StatusCode::Internal) {
            ++report.structuredErrors;
        } else {
            report.violations.push_back(
                std::string(subject.format) +
                " seed=" + std::to_string(seed) +
                " iter=" + std::to_string(i) + ": " +
                status.toString());
        }
    }
    return report;
}

} // namespace dynex::test

#endif // DYNEX_TESTS_ROBUSTNESS_CORRUPTION_FUZZER_H

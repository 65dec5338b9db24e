#include "sim/sweep.h"

#include <algorithm>
#include <optional>
#include <utility>

#include "sim/kernel.h"
#include "sim/obs_hooks.h"
#include "sim/parallel.h"
#include "util/bitops.h"
#include "util/stats.h"
#include "util/string_utils.h"

namespace dynex
{

const std::vector<std::uint64_t> &
paperCacheSizes()
{
    static const std::vector<std::uint64_t> sizes = {
        1024,      2 * 1024,  4 * 1024,  8 * 1024,
        16 * 1024, 32 * 1024, 64 * 1024, 128 * 1024,
    };
    return sizes;
}

const std::vector<std::uint32_t> &
paperLineSizes()
{
    static const std::vector<std::uint32_t> lines = {4, 8, 16, 32, 64};
    return lines;
}

Status
validateSweepAxis(const std::vector<std::uint64_t> &sizes,
                  std::uint32_t line_bytes)
{
    if (sizes.empty())
        return Status::corruptInput("empty cache-size axis");
    if (sizes.size() > kMaxSweepAxisSizes)
        return Status::resourceLimit(
            "cache-size axis of " + std::to_string(sizes.size()) +
            " entries exceeds the cap of " +
            std::to_string(kMaxSweepAxisSizes));
    std::uint64_t previous = 0;
    for (const std::uint64_t size : sizes) {
        if (!isPowerOfTwo(size))
            return Status::corruptInput(
                "cache size " + std::to_string(size) +
                " is not a power of two");
        if (size < line_bytes)
            return Status::corruptInput(
                "cache size " + std::to_string(size) +
                " is smaller than the " + std::to_string(line_bytes) +
                "-byte line");
        if (size <= previous)
            return Status::corruptInput(
                "cache sizes must be strictly increasing (saw " +
                std::to_string(size) + " after " +
                std::to_string(previous) + ")");
        previous = size;
    }
    return Status();
}

double
SizeSweepPoint::deImprovementPct()
const
{
    return percentReduction(dmMissPct, deMissPct);
}

double
SizeSweepPoint::optImprovementPct()
const
{
    return percentReduction(dmMissPct, optMissPct);
}

double
LineSweepPoint::deImprovementPct()
const
{
    return percentReduction(dmMissPct, deMissPct);
}

double
LineSweepPoint::optImprovementPct()
const
{
    return percentReduction(dmMissPct, optMissPct);
}

void
checkSweepOrderings(const std::vector<std::uint64_t> &sizes,
                    TriadBatchOutcome &outcome, const std::string &label)
{
    const auto broken = [](const std::string &what, Count a, Count b) {
        return Status::internal("sweep ordering broken: " + what + " (" +
                                std::to_string(a) + " > " +
                                std::to_string(b) + ")");
    };
    std::vector<std::size_t> ascending;
    for (std::size_t s = 0; s < sizes.size(); ++s)
        if (outcome.ok[s])
            ascending.push_back(s);
    std::stable_sort(ascending.begin(), ascending.end(),
                     [&](std::size_t a, std::size_t b) {
                         return sizes[a] < sizes[b];
                     });
    // Judged on the legs as they came in; marked afterwards.
    std::vector<std::pair<std::size_t, Status>> failed;
    for (std::size_t at = 0; at < ascending.size(); ++at) {
        const std::size_t s = ascending[at];
        const TriadResult &leg = outcome.triads[s];
        if (leg.opt.misses > leg.de.misses) {
            failed.emplace_back(s, broken("opt misses <= de misses",
                                          leg.opt.misses, leg.de.misses));
            continue;
        }
        if (leg.opt.misses > leg.dm.misses) {
            failed.emplace_back(s, broken("opt misses <= dm misses",
                                          leg.opt.misses, leg.dm.misses));
            continue;
        }
        if (at == 0)
            continue;
        const std::size_t p = ascending[at - 1];
        const TriadResult &smaller = outcome.triads[p];
        const std::string step = " from " + formatSize(sizes[p]) +
                                 " to " + formatSize(sizes[s]);
        if (sizes[p] < sizes[s] && leg.dm.misses > smaller.dm.misses)
            failed.emplace_back(
                s, broken("dm misses never rise" + step, leg.dm.misses,
                          smaller.dm.misses));
        else if (sizes[p] < sizes[s] && leg.opt.misses > smaller.opt.misses)
            failed.emplace_back(
                s, broken("opt misses never rise" + step, leg.opt.misses,
                          smaller.opt.misses));
    }
    if (failed.empty())
        return;
    for (auto &[s, status] : failed) {
        outcome.ok[s] = 0;
        outcome.failures.push_back({label, sizes[s], "triad", status});
    }
    // Back into leg order, as the engines list their failures.
    const auto legOf = [&](const FailedLeg &failure) {
        return std::find(sizes.begin(), sizes.end(), failure.sizeBytes) -
               sizes.begin();
    };
    std::stable_sort(outcome.failures.begin(), outcome.failures.end(),
                     [&](const FailedLeg &a, const FailedLeg &b) {
                         return legOf(a) < legOf(b);
                     });
}

SizeSweepOutcome
sweepSizes(const ReplayArtifact &artifact,
           const std::vector<std::uint64_t> &sizes,
           const DynamicExclusionConfig &config, ReplayEngine engine)
{
    TriadBatchOutcome pass = replayTriads(engine, artifact, sizes, config,
                                          artifact.name());
    checkSweepOrderings(sizes, pass, artifact.name());
    SizeSweepOutcome outcome;
    outcome.points.resize(sizes.size());
    for (std::size_t s = 0; s < sizes.size(); ++s) {
        const TriadResult &triad = pass.triads[s];
        outcome.points[s] =
            pass.ok[s] ? SizeSweepPoint{sizes[s], triad.dmMissPct(),
                                        triad.deMissPct(),
                                        triad.optMissPct()}
                       : SizeSweepPoint{sizes[s]};
    }
    outcome.ok = std::move(pass.ok);
    outcome.failures = std::move(pass.failures);
    return outcome;
}

SizeSweepOutcome
sweepSizes(const Trace &trace, const std::vector<std::uint64_t> &sizes,
           std::uint32_t line_bytes, const DynamicExclusionConfig &config,
           ReplayEngine engine)
{
    std::optional<obs::ScopedSpan> sweep_span;
    if (obs::Tracer::active())
        sweep_span.emplace("sweep", "sweep " + trace.name());

    std::shared_ptr<const ReplayArtifact> artifact;
    try {
        artifact = buildReplayArtifact(trace, line_bytes, trace.name());
    } catch (...) {
        // Without the shared view and next-use oracle no leg can run.
        const Status status =
            statusFromException(std::current_exception())
                .withContext("next-use index");
        SizeSweepOutcome outcome;
        outcome.points.resize(sizes.size());
        outcome.ok.assign(sizes.size(), 0);
        for (std::size_t s = 0; s < sizes.size(); ++s) {
            outcome.points[s].sizeBytes = sizes[s];
            outcome.failures.push_back(
                {trace.name(), sizes[s], "triad", status});
        }
        return outcome;
    }
    return sweepSizes(*artifact, sizes, config, engine);
}

SuiteAverageOutcome
sweepSuiteAverage(const std::vector<std::string> &benchmark_names,
                  Count refs, const std::vector<std::uint64_t> &sizes,
                  std::uint32_t line_bytes,
                  const DynamicExclusionConfig &config, StreamKind stream,
                  ReplayEngine engine)
{
    SuiteAverageOutcome outcome;
    outcome.points.resize(sizes.size());
    outcome.ok.assign(sizes.size(), 0);
    outcome.contributors.assign(sizes.size(), 0);
    for (std::size_t s = 0; s < sizes.size(); ++s)
        outcome.points[s].sizeBytes = sizes[s];

    auto suite = sweepSuiteTriads(benchmark_names, refs, sizes,
                                  line_bytes, config, stream, engine);
    outcome.failures = std::move(suite.failures);

    // Serial reduction in benchmark order: the same floating-point
    // accumulation order at any thread count, so results are
    // bit-identical. A failed leg simply contributes nothing to its
    // size.
    for (std::size_t b = 0; b < suite.grid.size(); ++b) {
        for (std::size_t s = 0; s < sizes.size(); ++s) {
            if (!suite.ok[b][s])
                continue;
            outcome.points[s].dmMissPct += suite.grid[b][s].dmMissPct();
            outcome.points[s].deMissPct += suite.grid[b][s].deMissPct();
            outcome.points[s].optMissPct +=
                suite.grid[b][s].optMissPct();
            ++outcome.contributors[s];
        }
    }
    for (std::size_t s = 0; s < sizes.size(); ++s) {
        if (outcome.contributors[s] == 0)
            continue;
        const auto n = static_cast<double>(outcome.contributors[s]);
        outcome.points[s].dmMissPct /= n;
        outcome.points[s].deMissPct /= n;
        outcome.points[s].optMissPct /= n;
        outcome.ok[s] = 1;
    }
    return outcome;
}

std::vector<LineSweepPoint>
sweepSuiteLineSizes(const std::vector<std::string> &benchmark_names,
                    Count refs, std::uint64_t size_bytes,
                    const std::vector<std::uint32_t> &lines,
                    const DynamicExclusionConfig &config,
                    ReplayEngine engine)
{
    std::vector<LineSweepPoint> average(lines.size());
    for (std::size_t l = 0; l < lines.size(); ++l)
        average[l].lineBytes = lines[l];

    const auto grid = sweepSuiteLineTriads(benchmark_names, refs,
                                           size_bytes, lines, config,
                                           engine);
    for (const auto &row : grid) {
        for (std::size_t l = 0; l < lines.size(); ++l) {
            average[l].dmMissPct += row[l].dmMissPct();
            average[l].deMissPct += row[l].deMissPct();
            average[l].optMissPct += row[l].optMissPct();
        }
    }
    const auto n = static_cast<double>(benchmark_names.size());
    for (auto &point : average) {
        point.dmMissPct /= n;
        point.deMissPct /= n;
        point.optMissPct /= n;
    }
    return average;
}

} // namespace dynex

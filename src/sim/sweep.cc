#include "sim/sweep.h"

#include <optional>

#include "sim/kernel.h"
#include "sim/obs_hooks.h"
#include "sim/parallel.h"
#include "sim/workloads.h"
#include "trace/next_use.h"
#include "util/bitops.h"
#include "util/logging.h"
#include "util/stats.h"

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

std::vector<SizeSweepPoint>
sweepSizes(const Trace &trace, const std::vector<std::uint64_t> &sizes,
           std::uint32_t line_bytes, const DynamicExclusionConfig &config,
           ReplayEngine engine)
{
    SizeSweepOutcome outcome =
        sweepSizesChecked(trace, sizes, line_bytes, config, engine);
    if (!outcome.allOk())
        throw StatusError(std::move(outcome.failures.front().status));
    return std::move(outcome.points);
}

namespace
{

/** The shared checked-sweep body; the caller owns the sweep span and
 * has already built (or fetched) the view and index. */
SizeSweepOutcome
sweepSizesCheckedImpl(const Trace &trace, const PackedTraceView &view,
                      const NextUseIndex &index,
                      const std::vector<std::uint64_t> &sizes,
                      std::uint32_t line_bytes,
                      const DynamicExclusionConfig &config,
                      ReplayEngine engine)
{
    DYNEX_ASSERT(index.blockSize() == line_bytes &&
                     index.mode() == NextUseMode::RunStart,
                 "sweepSizesChecked needs a RunStart index at line "
                 "granularity");
    TriadBatchOutcome pass = replayTriads(engine, trace, view, index,
                                          sizes, line_bytes, config,
                                          trace.name());
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
    for (auto &failure : pass.failures)
        outcome.failures.push_back({trace.name(),
                                    sizes[failure.sizeIndex], "triad",
                                    std::move(failure.status)});
    return outcome;
}

} // namespace

SizeSweepOutcome
sweepSizesChecked(const Trace &trace,
                  const std::vector<std::uint64_t> &sizes,
                  std::uint32_t line_bytes,
                  const DynamicExclusionConfig &config,
                  ReplayEngine engine)
{
    std::optional<obs::ScopedSpan> sweep_span;
    if (obs::Tracer::active())
        sweep_span.emplace("sweep", "sweep " + trace.name());

    std::optional<PackedTraceView> view;
    std::optional<NextUseIndex> index;
    try {
        view.emplace(trace, line_bytes);
        index.emplace(simobs::indexRunStarts(*view, trace.name()));
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
    return sweepSizesCheckedImpl(trace, *view, *index, sizes,
                                 line_bytes, config, engine);
}

SizeSweepOutcome
sweepSizesChecked(const Trace &trace, const NextUseIndex &index,
                  const PackedTraceView &view,
                  const std::vector<std::uint64_t> &sizes,
                  std::uint32_t line_bytes,
                  const DynamicExclusionConfig &config,
                  ReplayEngine engine)
{
    std::optional<obs::ScopedSpan> sweep_span;
    if (obs::Tracer::active())
        sweep_span.emplace("sweep", "sweep " + trace.name());
    return sweepSizesCheckedImpl(trace, view, index, sizes, line_bytes,
                                 config, engine);
}

std::vector<SizeSweepPoint>
sweepSuiteAverage(const std::vector<std::string> &benchmark_names,
                  Count refs, const std::vector<std::uint64_t> &sizes,
                  std::uint32_t line_bytes,
                  const DynamicExclusionConfig &config, bool data_refs,
                  bool mixed_refs, ReplayEngine engine)
{
    SuiteAverageOutcome outcome = sweepSuiteAverageChecked(
        benchmark_names, refs, sizes, line_bytes, config, data_refs,
        mixed_refs, engine);
    if (!outcome.allOk())
        throw StatusError(std::move(outcome.failures.front().status));
    return std::move(outcome.points);
}

SuiteAverageOutcome
sweepSuiteAverageChecked(const std::vector<std::string> &benchmark_names,
                         Count refs,
                         const std::vector<std::uint64_t> &sizes,
                         std::uint32_t line_bytes,
                         const DynamicExclusionConfig &config,
                         bool data_refs, bool mixed_refs,
                         ReplayEngine engine)
{
    DYNEX_ASSERT(!(data_refs && mixed_refs),
                 "choose one stream kind");
    SuiteAverageOutcome outcome;
    outcome.points.resize(sizes.size());
    outcome.ok.assign(sizes.size(), 0);
    outcome.contributors.assign(sizes.size(), 0);
    for (std::size_t s = 0; s < sizes.size(); ++s)
        outcome.points[s].sizeBytes = sizes[s];

    const StreamKind stream = mixed_refs ? StreamKind::Mixed
                              : data_refs ? StreamKind::Data
                                          : StreamKind::Instructions;
    auto suite = sweepSuiteTriadsChecked(benchmark_names, refs, sizes,
                                         line_bytes, config, stream,
                                         engine);
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

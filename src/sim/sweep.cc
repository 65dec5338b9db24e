#include "sim/sweep.h"

#include <algorithm>
#include <iterator>
#include <memory>
#include <optional>
#include <utility>

#include "sim/kernel.h"
#include "sim/obs_hooks.h"
#include "sim/workloads.h"
#include "util/bitops.h"
#include "util/stats.h"
#include "util/string_utils.h"
#include "util/thread_pool.h"

namespace dynex
{

namespace
{

/**
 * Replay every size leg of @p artifact's source with @p engine: the
 * one place a sweep's engine choice is made. The kernel streams the
 * artifact once for all legs; PerLeg runs one observed runTriad per
 * size across the pool over the artifact's trace() and index. Either
 * engine calls the sweep fault hook as hook(label, size) per leg and
 * records a leg that throws as a FailedLeg without perturbing the
 * others. PerLeg on an artifact packed from a file (no trace()) fails
 * every leg with InvalidArgument.
 */
TriadBatchOutcome
replayTriads(ReplayEngine engine, const ReplayArtifact &artifact,
             const std::vector<std::uint64_t> &sizes,
             const DynamicExclusionConfig &config,
             const std::string &label)
{
    if (engine == ReplayEngine::Kernel)
        return replayTriadKernel(artifact, sizes, config, label);

    TriadBatchOutcome outcome;
    outcome.triads.resize(sizes.size());
    outcome.ok.assign(sizes.size(), 0);
    const Trace *const trace = artifact.trace();
    if (!trace) {
        for (const std::uint64_t size : sizes)
            outcome.failures.push_back(
                {label, size, "triad",
                 Status::invalidArgument(
                     "the per-leg engine replays a decoded trace; '" +
                     artifact.name() + "' was packed without one")});
        return outcome;
    }
    std::vector<Status> leg_status(sizes.size());
    ThreadPool::global().parallelFor(sizes.size(), [&](std::size_t s) {
        try {
            if (const auto &hook = sweepFaultHook())
                hook(label, sizes[s]);
            outcome.triads[s] = simobs::runTriadLeg(
                *trace, artifact.index(), label, sizes[s],
                artifact.lineBytes(), config);
            outcome.ok[s] = 1;
        } catch (...) {
            leg_status[s] =
                statusFromException(std::current_exception());
        }
    });
    for (std::size_t s = 0; s < sizes.size(); ++s)
        if (!outcome.ok[s])
            outcome.failures.push_back(
                {label, sizes[s], "triad", std::move(leg_status[s])});
    return outcome;
}

/**
 * The suite average of sweepSizes over @p sizes at each of @p lines:
 * points[l * |sizes| + s] averages the benchmarks whose leg at
 * (lines[l], sizes[s]) passed. One pool job per benchmark fills its
 * row with the concatenated outcomes; the rows are then reduced
 * serially in benchmark order.
 */
SuiteAverageOutcome
averageSuite(const std::vector<std::string> &benchmark_names, Count refs,
             StreamKind stream, const std::vector<std::uint32_t> &lines,
             const std::vector<std::uint64_t> &sizes,
             const DynamicExclusionConfig &config, ReplayEngine engine)
{
    const std::size_t width = lines.size() * sizes.size();
    std::vector<SizeSweepOutcome> rows(benchmark_names.size());
    const auto escaped = ThreadPool::global().parallelForCollect(
        benchmark_names.size(), [&](std::size_t b) {
            const std::string &bench = benchmark_names[b];
            std::optional<obs::ScopedSpan> bench_span;
            if (obs::Tracer::active())
                bench_span.emplace("bench", "bench " + bench);
            if (const auto &hook = sweepFaultHook())
                hook(bench, 0);
            Trace trace = loadStream(bench, refs, stream);
            trace.setName(bench);
            SizeSweepOutcome &row = rows[b];
            for (const std::uint32_t line : lines) {
                SizeSweepOutcome swept =
                    sweepSizes(*buildReplayArtifact(trace, line, bench),
                               sizes, config, engine);
                row.points.insert(row.points.end(), swept.points.begin(),
                                  swept.points.end());
                row.ok.insert(row.ok.end(), swept.ok.begin(),
                              swept.ok.end());
                std::move(swept.failures.begin(), swept.failures.end(),
                          std::back_inserter(row.failures));
            }
        });

    // A throw outside sweepSizes -- the setup probe, the load, an
    // artifact build, or an allocation failure while recording a leg
    // -- voids only its own benchmark.
    for (const auto &e : escaped)
        rows[e.index] = {std::vector<SizeSweepPoint>(width),
                         std::vector<std::uint8_t>(width, 0),
                         {{benchmark_names[e.index], 0, "triad",
                           statusFromException(e.error)}}};

    SuiteAverageOutcome average;
    average.points.resize(width);
    average.ok.assign(width, 0);
    average.contributors.assign(width, 0);
    for (std::size_t i = 0; i < width; ++i)
        average.points[i].sizeBytes = sizes[i % sizes.size()];
    // Serial reduction in benchmark order: the same floating-point
    // accumulation order at any thread count, so results are
    // bit-identical. A failed leg simply contributes nothing.
    for (SizeSweepOutcome &row : rows) {
        for (std::size_t i = 0; i < width; ++i) {
            if (!row.ok[i])
                continue;
            average.points[i].dmMissPct += row.points[i].dmMissPct;
            average.points[i].deMissPct += row.points[i].deMissPct;
            average.points[i].optMissPct += row.points[i].optMissPct;
            ++average.contributors[i];
        }
        std::move(row.failures.begin(), row.failures.end(),
                  std::back_inserter(average.failures));
    }
    for (std::size_t i = 0; i < width; ++i) {
        if (average.contributors[i] == 0)
            continue;
        const auto n = static_cast<double>(average.contributors[i]);
        average.points[i].dmMissPct /= n;
        average.points[i].deMissPct /= n;
        average.points[i].optMissPct /= n;
        average.ok[i] = 1;
    }
    return average;
}

} // namespace

Trace
loadStream(const std::string &name, Count refs, StreamKind stream)
{
    obs::MetricsCollector *const metrics = obs::activeMetrics();
    obs::Tracer *const tracer = obs::Tracer::active();
    const std::uint64_t metrics_t0 = metrics ? obs::monotonicNs() : 0;
    const std::uint64_t tracer_t0 = tracer ? tracer->nowNs() : 0;

    Trace trace;
    switch (stream) {
      case StreamKind::Data:
        trace = Workloads::data(name, refs);
        break;
      case StreamKind::Mixed:
        trace = Workloads::mixed(name, refs);
        break;
      case StreamKind::Instructions:
        trace = Workloads::instructions(name, refs);
        break;
    }

    if (metrics) {
        metrics->add(obs::Counter::TraceLoadNs,
                     obs::monotonicNs() - metrics_t0);
        metrics->add(obs::Counter::TraceLoadRefs, trace.size());
    }
    if (tracer)
        tracer->complete("load " + name, "load", tracer_t0,
                         tracer->nowNs() - tracer_t0);
    return trace;
}

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
    return averageSuite(benchmark_names, refs, stream, {line_bytes},
                        sizes, config, engine);
}

std::vector<LineSweepPoint>
sweepSuiteLineSizes(const std::vector<std::string> &benchmark_names,
                    Count refs, std::uint64_t size_bytes,
                    const std::vector<std::uint32_t> &lines,
                    const DynamicExclusionConfig &config,
                    ReplayEngine engine)
{
    const SuiteAverageOutcome average =
        averageSuite(benchmark_names, refs, StreamKind::Instructions,
                     lines, {size_bytes}, config, engine);
    throwIfFailed(average.failures);
    std::vector<LineSweepPoint> points(lines.size());
    for (std::size_t l = 0; l < lines.size(); ++l)
        points[l] = {lines[l], average.points[l].dmMissPct,
                     average.points[l].deMissPct,
                     average.points[l].optMissPct};
    return points;
}

} // namespace dynex

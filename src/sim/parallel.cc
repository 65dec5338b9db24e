#include "sim/parallel.h"

#include <memory>
#include <optional>
#include <sstream>

#include "sim/kernel.h"
#include "sim/obs_hooks.h"
#include "sim/workloads.h"
#include "trace/next_use.h"
#include "util/string_utils.h"
#include "util/thread_pool.h"

namespace dynex
{

std::string
FailedLeg::toString() const
{
    std::ostringstream oss;
    oss << bench << " @ "
        << (sizeBytes ? formatSize(sizeBytes) : std::string("all"))
        << " [" << model << "]: " << status.toString();
    return oss.str();
}

std::shared_ptr<const Trace>
loadStream(const std::string &name, Count refs, StreamKind stream)
{
    obs::MetricsCollector *const metrics = obs::activeMetrics();
    obs::Tracer *const tracer = obs::Tracer::active();
    const std::uint64_t metrics_t0 = metrics ? obs::monotonicNs() : 0;
    const std::uint64_t tracer_t0 = tracer ? tracer->nowNs() : 0;

    std::shared_ptr<const Trace> trace;
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
        metrics->add(obs::Counter::TraceLoadRefs, trace->size());
    }
    if (tracer)
        tracer->complete("load " + name, "load", tracer_t0,
                         tracer->nowNs() - tracer_t0);
    return trace;
}

void
simParallelFor(std::size_t n,
               const std::function<void(std::size_t)> &body)
{
    ThreadPool::global().parallelFor(n, body);
}

TriadBatchOutcome
replayTriads(ReplayEngine engine, const Trace &trace,
             const PackedTraceView &view, const NextUseIndex &index,
             const std::vector<std::uint64_t> &sizes,
             std::uint32_t line_bytes,
             const DynamicExclusionConfig &config,
             const std::string &label)
{
    if (engine == ReplayEngine::Kernel)
        return replayTriadKernel(view, index, sizes, line_bytes, config,
                                 label);

    TriadBatchOutcome outcome;
    outcome.triads.resize(sizes.size());
    outcome.ok.assign(sizes.size(), 0);
    std::vector<Status> leg_status(sizes.size());
    simParallelFor(sizes.size(), [&](std::size_t s) {
        try {
            if (const auto &hook = sweepFaultHook())
                hook(label, sizes[s]);
            outcome.triads[s] = simobs::runTriadLeg(
                trace, index, label, sizes[s], line_bytes, config);
            outcome.ok[s] = 1;
        } catch (...) {
            leg_status[s] =
                statusFromException(std::current_exception());
        }
    });
    for (std::size_t s = 0; s < sizes.size(); ++s)
        if (!outcome.ok[s])
            outcome.failures.push_back({s, std::move(leg_status[s])});
    return outcome;
}

std::vector<std::vector<TriadResult>>
sweepSuiteTriads(const std::vector<std::string> &benchmark_names,
                 Count refs, const std::vector<std::uint64_t> &sizes,
                 std::uint32_t line_bytes,
                 const DynamicExclusionConfig &config, StreamKind stream,
                 ReplayEngine engine)
{
    SuiteSweepOutcome outcome = sweepSuiteTriadsChecked(
        benchmark_names, refs, sizes, line_bytes, config, stream, engine);
    if (!outcome.allOk())
        throw StatusError(std::move(outcome.failures.front().status));
    return std::move(outcome.grid);
}

SuiteSweepOutcome
sweepSuiteTriadsChecked(const std::vector<std::string> &benchmark_names,
                        Count refs,
                        const std::vector<std::uint64_t> &sizes,
                        std::uint32_t line_bytes,
                        const DynamicExclusionConfig &config,
                        StreamKind stream, ReplayEngine engine)
{
    const std::size_t benches = benchmark_names.size();
    SuiteSweepOutcome outcome;
    outcome.grid.assign(benches,
                        std::vector<TriadResult>(sizes.size()));
    outcome.ok.assign(benches,
                      std::vector<std::uint8_t>(sizes.size(), 0));

    // Failures land in per-benchmark slots and are concatenated
    // serially afterwards, so the failure list (like the grid) is
    // deterministic at any worker count.
    std::vector<std::vector<FailedLeg>> per_bench(benches);

    const auto escaped = ThreadPool::global().parallelForCollect(
        benches, [&](std::size_t b) {
            const std::string &bench = benchmark_names[b];
            std::optional<obs::ScopedSpan> bench_span;
            if (obs::Tracer::active())
                bench_span.emplace("bench", "bench " + bench);
            std::shared_ptr<const Trace> trace;
            std::optional<PackedTraceView> view;
            std::optional<NextUseIndex> index;
            try {
                if (const auto &hook = sweepFaultHook())
                    hook(bench, 0);
                trace = loadStream(bench, refs, stream);
                view.emplace(*trace, line_bytes);
                index.emplace(simobs::indexRunStarts(*view, bench));
            } catch (...) {
                per_bench[b].push_back(
                    {bench, 0, "triad",
                     statusFromException(std::current_exception())});
                return;
            }
            TriadBatchOutcome pass =
                replayTriads(engine, *trace, *view, *index, sizes,
                             line_bytes, config, bench);
            outcome.grid[b] = std::move(pass.triads);
            outcome.ok[b] = std::move(pass.ok);
            for (auto &failure : pass.failures)
                per_bench[b].push_back({bench, sizes[failure.sizeIndex],
                                        "triad",
                                        std::move(failure.status)});
        });

    // A failure that escaped the per-leg capture (e.g. an allocation
    // failure while recording one) still only voids its own benchmark.
    for (const auto &e : escaped) {
        outcome.ok[e.index].assign(sizes.size(), 0);
        per_bench[e.index].clear();
        per_bench[e.index].push_back({benchmark_names[e.index], 0,
                                      "triad",
                                      statusFromException(e.error)});
    }

    for (auto &failures : per_bench)
        for (auto &failure : failures)
            outcome.failures.push_back(std::move(failure));
    return outcome;
}

std::vector<std::vector<TriadResult>>
sweepSuiteLineTriads(const std::vector<std::string> &benchmark_names,
                     Count refs, std::uint64_t size_bytes,
                     const std::vector<std::uint32_t> &lines,
                     const DynamicExclusionConfig &config,
                     ReplayEngine engine)
{
    std::vector<std::vector<TriadResult>> grid(benchmark_names.size());
    simParallelFor(benchmark_names.size(), [&](std::size_t b) {
        const std::string &bench = benchmark_names[b];
        std::optional<obs::ScopedSpan> bench_span;
        if (obs::Tracer::active())
            bench_span.emplace("bench", "bench " + bench);
        const auto trace =
            loadStream(bench, refs, StreamKind::Instructions);
        const std::vector<std::uint64_t> one_size = {size_bytes};
        auto &row = grid[b];
        row.resize(lines.size());
        for (std::size_t l = 0; l < lines.size(); ++l) {
            const PackedTraceView view(*trace, lines[l]);
            const NextUseIndex index =
                simobs::indexRunStarts(view, bench);
            row[l] = triadsOrThrow(replayTriads(engine, *trace, view,
                                                index, one_size,
                                                lines[l], config,
                                                bench))[0];
        }
    });
    return grid;
}

} // namespace dynex

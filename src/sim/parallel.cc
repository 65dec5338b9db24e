#include "sim/parallel.h"

#include <memory>
#include <optional>

#include "sim/kernel.h"
#include "sim/obs_hooks.h"
#include "sim/workloads.h"
#include "util/thread_pool.h"

namespace dynex
{

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

SuiteSweepOutcome
sweepSuiteTriads(const std::vector<std::string> &benchmark_names,
                 Count refs, const std::vector<std::uint64_t> &sizes,
                 std::uint32_t line_bytes,
                 const DynamicExclusionConfig &config, StreamKind stream,
                 ReplayEngine engine)
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
            Trace trace;
            std::shared_ptr<const ReplayArtifact> artifact;
            try {
                if (const auto &hook = sweepFaultHook())
                    hook(bench, 0);
                trace = loadStream(bench, refs, stream);
                artifact = buildReplayArtifact(trace, line_bytes, bench);
            } catch (...) {
                per_bench[b].push_back(
                    {bench, 0, "triad",
                     statusFromException(std::current_exception())});
                return;
            }
            TriadBatchOutcome pass =
                replayTriads(engine, *artifact, sizes, config, bench);
            outcome.grid[b] = std::move(pass.triads);
            outcome.ok[b] = std::move(pass.ok);
            per_bench[b] = std::move(pass.failures);
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
    ThreadPool::global().parallelFor(
        benchmark_names.size(), [&](std::size_t b) {
            const std::string &bench = benchmark_names[b];
            std::optional<obs::ScopedSpan> bench_span;
            if (obs::Tracer::active())
                bench_span.emplace("bench", "bench " + bench);
            const auto trace =
                loadStream(bench, refs, StreamKind::Instructions);
            auto &row = grid[b];
            row.resize(lines.size());
            for (std::size_t l = 0; l < lines.size(); ++l) {
                const TriadBatchOutcome pass = replayTriads(
                    engine, *buildReplayArtifact(trace, lines[l], bench),
                    {size_bytes}, config, bench);
                throwIfFailed(pass.failures);
                row[l] = pass.triads[0];
            }
        });
    return grid;
}

} // namespace dynex

/**
 * @file
 * Google-benchmark microbenchmarks of the simulator cores: accesses
 * per second for each cache model and the supporting machinery
 * (packed views, next-use indexing, trace generation).
 */

#include <benchmark/benchmark.h>

#include <iterator>
#include <memory>
#include <optional>
#include <sstream>
#include <string>

#include "cache/direct_mapped.h"
#include "cache/dynamic_exclusion.h"
#include "cache/optimal.h"
#include "cache/set_assoc.h"
#include "cache/victim.h"
#include "obs/metrics.h"
#include "sim/runner.h"
#include "sim/sweep.h"
#include "sim/workloads.h"
#include "trace/next_use.h"
#include "trace/packed_view.h"
#include "trace/trace_io.h"
#include "tracegen/spec.h"
#include "util/logging.h"
#include "util/rng.h"
#include "util/thread_pool.h"

namespace
{

using namespace dynex;

Trace
benchTrace(std::size_t refs)
{
    // A loopy synthetic stream resembling instruction traffic. The
    // inner loops emit whole loop bodies, so stop as soon as the
    // budget is met and truncate the overshoot: items-processed
    // accounting relies on the trace being exactly `refs` long.
    Rng rng(0xbe7c4);
    Trace trace("bench");
    trace.reserve(refs);
    while (trace.size() < refs) {
        const Addr base = 0x10000 + 4 * rng.nextBelow(32768);
        const int body = 4 + static_cast<int>(rng.nextBelow(24));
        const int iters = 1 + static_cast<int>(rng.nextBelow(6));
        for (int i = 0; i < iters && trace.size() < refs; ++i)
            for (int j = 0; j < body && trace.size() < refs; ++j)
                trace.append(ifetch(base + 4 * static_cast<Addr>(j)));
    }
    trace.mutableRecords().resize(refs);
    return trace;
}

const Trace &
sharedTrace()
{
    static const Trace trace = benchTrace(1 << 20);
    return trace;
}

template <typename MakeCache>
void
runCacheBenchmark(benchmark::State &state, MakeCache make_cache)
{
    const Trace &trace = sharedTrace();
    auto cache = make_cache();
    for (auto _ : state) {
        for (std::size_t i = 0; i < trace.size(); ++i)
            benchmark::DoNotOptimize(cache->access(trace[i], i));
    }
    state.SetItemsProcessed(
        static_cast<std::int64_t>(state.iterations() * trace.size()));
}

void
BM_DirectMapped(benchmark::State &state)
{
    runCacheBenchmark(state, [] {
        return std::make_unique<DirectMappedCache>(
            CacheGeometry::directMapped(32 * 1024, 4));
    });
}
BENCHMARK(BM_DirectMapped);

void
BM_DynamicExclusion(benchmark::State &state)
{
    runCacheBenchmark(state, [] {
        return std::make_unique<DynamicExclusionCache>(
            CacheGeometry::directMapped(32 * 1024, 4));
    });
}
BENCHMARK(BM_DynamicExclusion);

void
BM_SetAssoc4Way(benchmark::State &state)
{
    runCacheBenchmark(state, [] {
        return std::make_unique<SetAssocCache>(
            CacheGeometry::setAssociative(32 * 1024, 4, 4));
    });
}
BENCHMARK(BM_SetAssoc4Way);

void
BM_VictimCache(benchmark::State &state)
{
    runCacheBenchmark(state, [] {
        return std::make_unique<VictimCache>(
            CacheGeometry::directMapped(32 * 1024, 4), 4);
    });
}
BENCHMARK(BM_VictimCache);

void
BM_OptimalCache(benchmark::State &state)
{
    const Trace &trace = sharedTrace();
    static const NextUseIndex index(trace, 4, NextUseMode::RunStart);
    OptimalDirectMappedCache cache(
        CacheGeometry::directMapped(32 * 1024, 4), index, true);
    for (auto _ : state) {
        for (std::size_t i = 0; i < trace.size(); ++i)
            benchmark::DoNotOptimize(cache.access(trace[i], i));
    }
    state.SetItemsProcessed(
        static_cast<std::int64_t>(state.iterations() * trace.size()));
}
BENCHMARK(BM_OptimalCache);

void
BM_PackedViewBuild(benchmark::State &state)
{
    // The view's forward pass: the artifact's only block hash.
    const Trace &trace = sharedTrace();
    for (auto _ : state) {
        PackedTraceView view(trace, 4);
        benchmark::DoNotOptimize(view.distinctBlocks());
    }
    state.SetItemsProcessed(
        static_cast<std::int64_t>(state.iterations() * trace.size()));
}
BENCHMARK(BM_PackedViewBuild);

void
BM_NextUseIndexBuild(benchmark::State &state)
{
    // The RunStart index from a view's dense ids: one backward pass
    // over a flat per-block array, as every sweep builds it.
    const Trace &trace = sharedTrace();
    const PackedTraceView view(trace, 4);
    for (auto _ : state) {
        NextUseIndex index(view, NextUseMode::RunStart);
        benchmark::DoNotOptimize(index.size());
    }
    state.SetItemsProcessed(
        static_cast<std::int64_t>(state.iterations() * trace.size()));
}
BENCHMARK(BM_NextUseIndexBuild);

void
BM_NextUseBuildMap(benchmark::State &state)
{
    // Baseline: the original unordered_map backward pass, kept as the
    // reference oracle. Compare against BM_PackedViewBuild plus
    // BM_NextUseIndexBuild.
    const Trace &trace = sharedTrace();
    for (auto _ : state) {
        const auto next =
            nextUseByMap(trace, 4, NextUseMode::RunStart);
        benchmark::DoNotOptimize(next.size());
    }
    state.SetItemsProcessed(
        static_cast<std::int64_t>(state.iterations() * trace.size()));
}
BENCHMARK(BM_NextUseBuildMap);

void
BM_ReplayVirtual(benchmark::State &state)
{
    // Replay through the CacheModel& interface: one virtual dispatch
    // per reference. Baseline for BM_ReplayTemplated.
    const Trace &trace = sharedTrace();
    DynamicExclusionCache cache(
        CacheGeometry::directMapped(32 * 1024, 4));
    CacheModel &model = cache;
    for (auto _ : state)
        benchmark::DoNotOptimize(runTrace(model, trace));
    state.SetItemsProcessed(
        static_cast<std::int64_t>(state.iterations() * trace.size()));
}
BENCHMARK(BM_ReplayVirtual);

void
BM_ReplayTemplated(benchmark::State &state)
{
    // The statically-dispatched fast path used by runTriad: the model
    // type is known, so doAccess devirtualizes and inlines.
    const Trace &trace = sharedTrace();
    DynamicExclusionCache cache(
        CacheGeometry::directMapped(32 * 1024, 4));
    for (auto _ : state)
        benchmark::DoNotOptimize(replayTrace(cache, trace));
    state.SetItemsProcessed(
        static_cast<std::int64_t>(state.iterations() * trace.size()));
}
BENCHMARK(BM_ReplayTemplated);

void
runSuiteSweepBenchmark(benchmark::State &state, ReplayEngine engine,
                       bool with_metrics = false)
{
    // Size sweeps of two suite traces fanned out over state.range(0)
    // workers: each iteration builds both replay artifacts and replays
    // them; the traces are generated once, before the timed loop.
    // Results are bit-identical across the axis and across engines,
    // only wall-clock changes. Small fixed budget keeps smoke fast.
    ThreadPool::setConfiguredWorkers(
        static_cast<unsigned>(state.range(0)));
    constexpr Count kRefs = 100000;
    const Trace traces[] = {Workloads::instructions("mat300", kRefs),
                            Workloads::instructions("tomcatv", kRefs)};
    std::unique_ptr<obs::MetricsCollector> collector;
    std::optional<obs::ScopedMetrics> install;
    if (with_metrics) {
        collector = std::make_unique<obs::MetricsCollector>();
        for (const Trace &trace : traces)
            for (const std::uint64_t size : paperCacheSizes())
                collector->addLeg(trace.name(), size);
        install.emplace(collector.get());
    }
    for (auto _ : state) {
        SizeSweepOutcome sweeps[std::size(traces)];
        ThreadPool::global().parallelFor(
            std::size(traces), [&](std::size_t t) {
                sweeps[t] = sweepSizes(traces[t], paperCacheSizes(), 4,
                                       {}, engine);
            });
        for (const SizeSweepOutcome &sweep : sweeps) {
            throwIfFailed(sweep.failures);
            benchmark::DoNotOptimize(sweep.points.back().deMissPct);
        }
    }
    state.SetItemsProcessed(static_cast<std::int64_t>(
        state.iterations() * std::size(traces) *
        paperCacheSizes().size() * 3 * kRefs));
    ThreadPool::setConfiguredWorkers(0);
}

void
BM_SuiteSweepParallel(benchmark::State &state)
{
    // Per-leg engine: one trace pass per (size, model) leg through the
    // object models. Baseline for BM_SweepKernel.
    runSuiteSweepBenchmark(state, ReplayEngine::PerLeg);
}
BENCHMARK(BM_SuiteSweepParallel)->Arg(1)->Arg(2)->Arg(4)
    ->Unit(benchmark::kMillisecond)->UseRealTime();

void
BM_SweepKernel(benchmark::State &state)
{
    // SoA kernel: branchless table-driven FSM transitions over packed
    // tag/sticky/next-use lanes, stats derived from tallies at the end
    // of the pass instead of recorded per reference.
    runSuiteSweepBenchmark(state, ReplayEngine::Kernel);
}
BENCHMARK(BM_SweepKernel)->Arg(1)->Arg(2)->Arg(4)
    ->Unit(benchmark::kMillisecond)->UseRealTime();

void
BM_SweepKernelMetricsOn(benchmark::State &state)
{
    // BM_SweepKernel with a metrics collector installed: bounds the
    // cost a --metrics-out run adds (the split per-model chunk loops,
    // per-chunk clock reads and slot fills). The compiled-in-but-
    // *disabled* cost — what every normal sweep pays — is a few null
    // checks per chunk; compare this against BM_SweepKernel to see the
    // *enabled* cost.
    runSuiteSweepBenchmark(state, ReplayEngine::Kernel,
                           /*with_metrics=*/true);
}
BENCHMARK(BM_SweepKernelMetricsOn)->Arg(1)->Arg(2)->Arg(4)
    ->Unit(benchmark::kMillisecond)->UseRealTime();

/** One encoded image of the shared trace in @p format. */
const std::string &
encodedSharedTrace(TraceFormat format)
{
    const auto encode = [](TraceFormat f) {
        std::ostringstream out;
        const Status status = writeTrace(sharedTrace(), out, f);
        if (!status.ok())
            DYNEX_FATAL("shared-trace encode failed in bench: ",
                        status.toString());
        return out.str();
    };
    static const std::string dxt2 = encode(TraceFormat::Dxt2);
    static const std::string dxt3 = encode(TraceFormat::Dxt3);
    return format == TraceFormat::Dxt3 ? dxt3 : dxt2;
}

void
runDecodeBenchmark(benchmark::State &state, TraceFormat format)
{
    const std::string &image = encodedSharedTrace(format);
    for (auto _ : state) {
        std::istringstream in(image);
        auto trace = readTrace(in);
        benchmark::DoNotOptimize(trace.value().size());
    }
    state.SetItemsProcessed(static_cast<std::int64_t>(
        state.iterations() * sharedTrace().size()));
    state.SetBytesProcessed(
        static_cast<std::int64_t>(state.iterations() * image.size()));
    state.counters["bytes_per_ref"] = benchmark::Counter(
        static_cast<double>(image.size()) /
        static_cast<double>(sharedTrace().size()));
}

void
BM_Dxt2Decode(benchmark::State &state)
{
    runDecodeBenchmark(state, TraceFormat::Dxt2);
}
BENCHMARK(BM_Dxt2Decode)->Unit(benchmark::kMillisecond);

void
BM_Dxt3Decode(benchmark::State &state)
{
    runDecodeBenchmark(state, TraceFormat::Dxt3);
}
BENCHMARK(BM_Dxt3Decode)->Unit(benchmark::kMillisecond);

void
BM_TraceGeneration(benchmark::State &state)
{
    for (auto _ : state) {
        const Trace trace = makeSpecTrace("li", 200000);
        benchmark::DoNotOptimize(trace.size());
    }
    state.SetItemsProcessed(state.iterations() * 200000);
}
BENCHMARK(BM_TraceGeneration);

} // namespace

BENCHMARK_MAIN();

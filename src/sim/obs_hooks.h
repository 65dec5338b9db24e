/**
 * @file
 * Internal glue between the per-leg engine and the obs layer: a tiny
 * helper that reads the active collector/tracer/progress pointers once
 * per leg, so the engine code stays readable and the cost with
 * observability off stays at a few null checks per leg.
 *
 * This header is sim-internal; the public observability surface is
 * src/obs/.
 */

#ifndef DYNEX_SIM_OBS_HOOKS_H
#define DYNEX_SIM_OBS_HOOKS_H

#include <string>

#include "obs/metrics.h"
#include "obs/progress.h"
#include "obs/trace_events.h"
#include "sim/runner.h"
#include "trace/next_use.h"
#include "trace/trace.h"

namespace dynex
{
namespace simobs
{

/**
 * Run one (bench, cache size) triad leg through the per-leg engine
 * with observability attached: the leg's wall time and results land in
 * its registered metrics slot, a "leg" span is recorded, and progress
 * advances by the trace length (the leg's replay work in references).
 * Exactly runTriad() when nothing is installed.
 */
inline TriadResult
runTriadLeg(const Trace &trace, const NextUseIndex &index,
            const std::string &bench, std::uint64_t size_bytes,
            std::uint32_t line_bytes,
            const DynamicExclusionConfig &config)
{
    obs::MetricsCollector *const metrics = obs::activeMetrics();
    obs::Tracer *const tracer = obs::Tracer::active();
    const std::uint64_t metrics_t0 = metrics ? obs::monotonicNs() : 0;
    const std::uint64_t tracer_t0 = tracer ? tracer->nowNs() : 0;

    const TriadResult triad =
        runTriad(trace, index, size_bytes, line_bytes, config);

    if (metrics) {
        const std::uint64_t leg_ns = obs::monotonicNs() - metrics_t0;
        if (obs::LegMetrics *const leg =
                metrics->leg(bench, size_bytes)) {
            leg->refs = trace.size();
            leg->dm = triad.dm;
            leg->de = triad.de;
            leg->opt = triad.opt;
            leg->deEvents = triad.deEvents;
            leg->replayNs = leg_ns;
            leg->done = true;
        }
    }
    if (tracer)
        tracer->complete("leg " + bench + " @ " +
                             std::to_string(size_bytes),
                         "leg", tracer_t0,
                         tracer->nowNs() - tracer_t0);
    if (obs::ProgressBar *const progress = obs::ProgressBar::active())
        progress->add(trace.size());
    return triad;
}

} // namespace simobs
} // namespace dynex

#endif // DYNEX_SIM_OBS_HOOKS_H

#include "workload/executor.h"

#include <optional>
#include <utility>

#include "obs/run_report.h"
#include "obs/trace_events.h"
#include "server/client.h"
#include "sim/sweep.h"
#include "sim/workloads.h"
#include "tracegen/spec.h"
#include "trace/text_io.h"
#include "util/thread_pool.h"
#include "workload/import.h"

namespace dynex
{
namespace workload
{

namespace
{

/** The sweep configuration a (campaign, line) leg runs under — the
 * same derivation the CLI and server use, so all three execution
 * paths produce bit-identical legs. */
DynamicExclusionConfig
legConfig(const CampaignSpec &spec, std::uint32_t line_bytes)
{
    DynamicExclusionConfig config;
    config.stickyMax = spec.stickyMax;
    config.useLastLine = line_bytes > 4;
    return config;
}

void
appendOutcome(CampaignReport &report, const std::string &label,
              std::uint32_t line_bytes,
              const std::vector<std::uint64_t> &sizes,
              const SizeSweepOutcome &outcome)
{
    for (std::size_t s = 0; s < sizes.size(); ++s) {
        CampaignLeg leg;
        leg.trace = label;
        leg.lineBytes = line_bytes;
        leg.sizeBytes = sizes[s];
        leg.ok = s < outcome.ok.size() && outcome.ok[s] != 0;
        if (s < outcome.points.size()) {
            leg.dmMissPct = outcome.points[s].dmMissPct;
            leg.deMissPct = outcome.points[s].deMissPct;
            leg.optMissPct = outcome.points[s].optMissPct;
        }
        report.legs.push_back(std::move(leg));
    }
    // Failures carry the campaign label, not the engine's trace name:
    // remote legs run under a campaign-scoped wire name that must not
    // leak into the (byte-identical) report.
    for (const FailedLeg &failed : outcome.failures) {
        CampaignFailure failure;
        failure.trace = label;
        failure.lineBytes = line_bytes;
        failure.sizeBytes = failed.sizeBytes;
        failure.model = failed.model;
        failure.status = failed.status.toString();
        report.failures.push_back(std::move(failure));
    }
}

/**
 * Run every source as one pool job that resolves it and sweeps its
 * lines as a nested loop, so the campaign takes as long as its slowest
 * source. Jobs write only their own slots; the merge below reads them
 * in spec order, so the report is byte-identical at any worker count,
 * and of several unresolvable sources the first in spec order is the
 * error, as when sources ran one after another.
 */
Status
runLocal(const CampaignSpec &spec, CampaignReport &report)
{
    const std::size_t lines = spec.lines.size();
    std::vector<Status> resolved(spec.traces.size());
    std::vector<SizeSweepOutcome> outcomes(spec.traces.size() * lines);

    ThreadPool &pool = ThreadPool::global();
    const std::vector<IndexedError> escaped = pool.parallelForCollect(
        spec.traces.size(), [&](std::size_t t) {
            const TraceSource &source = spec.traces[t];
            std::optional<obs::ScopedSpan> source_span;
            std::optional<obs::ScopedSpan> load_span;
            if (obs::Tracer::active()) {
                source_span.emplace("campaign", "source " + source.label);
                load_span.emplace("load", "load " + source.label);
            }
            const Result<Trace> trace = resolveSource(source, spec.refs);
            load_span.reset();
            if (!trace.ok()) {
                resolved[t] = trace.status();
                return;
            }
            pool.parallelFor(lines, [&](std::size_t l) {
                const std::uint32_t line = spec.lines[l];
                outcomes[t * lines + l] =
                    sweepSizes(trace.value(), spec.sizes, line,
                               legConfig(spec, line), spec.engine);
            });
        });
    for (const IndexedError &error : escaped)
        resolved[error.index] = statusFromException(error.error);

    for (const Status &status : resolved)
        if (!status.ok())
            return status;
    for (std::size_t t = 0; t < spec.traces.size(); ++t)
        for (std::size_t l = 0; l < lines; ++l)
            appendOutcome(report, spec.traces[t].label, spec.lines[l],
                          spec.sizes, outcomes[t * lines + l]);
    return Status();
}

Status
runRemote(const CampaignSpec &spec, const CampaignOptions &options,
          CampaignReport &report)
{
    server::Client client;
    client.setClientId(options.clientId);
    if (options.retries > 0) {
        server::RetryPolicy policy;
        policy.retries = options.retries;
        policy.backoffMs = options.backoffMs;
        client.setRetryPolicy(policy);
    }
    if (Status s = client.connect(options.host, options.port); !s.ok())
        return s;

    for (const TraceSource &source : spec.traces) {
        Result<Trace> trace = resolveSource(source, spec.refs);
        if (!trace.ok())
            return trace.status();

        // Upload under a campaign-scoped wire name: a default daemon
        // serves the whole synthetic suite, so a bare bench label
        // would collide with the served spec and be rejected. The
        // report still carries the plain label.
        const std::string wireName = "campaign:" + source.label;
        server::PutTraceRequest upload;
        upload.name = wireName;
        upload.refs = trace.value().records();
        Result<server::PutTraceResult> put = client.put(upload);
        if (!put.ok())
            return put.status().withContext("put '" + source.label +
                                            "'");

        for (const std::uint32_t line : spec.lines) {
            server::SweepRequest request;
            request.trace = wireName;
            request.lineBytes = line;
            request.engine =
                static_cast<std::uint8_t>(spec.engine);
            request.stickyMax = spec.stickyMax;
            request.deadlineMs = options.deadlineMs;
            request.sizes = spec.sizes;
            Result<server::SweepResult> swept =
                client.sweep(request);
            if (!swept.ok())
                return swept.status().withContext(
                    "sweep '" + source.label + "'");
            appendOutcome(report, source.label, line, spec.sizes,
                          swept.value().outcome);
        }
    }
    return Status();
}

} // namespace

Result<Trace>
resolveSource(const TraceSource &source, Count refs)
{
    switch (source.kind) {
      case SourceKind::Bench: {
        if (!isSpecBenchmark(source.spec))
            return Status::corruptInput("unknown benchmark '" +
                                        source.spec + "'");
        const Count budget =
            refs != 0 ? refs : Workloads::defaultRefs();
        Trace trace = Workloads::instructions(source.spec, budget);
        trace.setName(source.label);
        return trace;
      }
      case SourceKind::File: {
        Result<Trace> trace = readAnyTraceFile(source.spec);
        if (!trace.ok())
            return trace.status();
        trace.value().setName(source.label);
        return trace;
      }
      case SourceKind::Import: {
        Result<Trace> trace =
            source.format == "lackey"
                ? readLackeyTraceFile(source.spec, source.label)
                : readTextTraceFile(source.spec, source.label);
        if (!trace.ok())
            return trace.status();
        return trace;
      }
    }
    return Status::internal("unhandled trace source kind");
}

Result<CampaignReport>
runCampaign(const CampaignSpec &spec, const CampaignOptions &options)
{
    CampaignReport report;
    report.name = spec.name;
    report.engine = replayEngineName(spec.engine);
    report.models = spec.models;

    const Status ran = options.port == 0
                           ? runLocal(spec, report)
                           : runRemote(spec, options, report);
    if (!ran.ok())
        return ran.withContext("campaign '" + spec.name + "'");
    return report;
}

Status
writeCampaignOutputs(const CampaignReport &report,
                     const CampaignSpec &spec)
{
    if (!spec.jsonOut.empty()) {
        if (Status s = obs::writeTextFile(spec.jsonOut,
                                          report.toJson());
            !s.ok())
            return s;
    }
    if (!spec.csvOut.empty()) {
        if (Status s =
                obs::writeTextFile(spec.csvOut, report.toCsv());
            !s.ok())
            return s;
    }
    return Status();
}

} // namespace workload
} // namespace dynex

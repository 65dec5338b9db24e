#include "obs/run_report.h"

#include <sstream>

#include "cache/exclusion_fsm.h"
#include "obs/json.h"
#include "util/csv.h"
#include "util/stats.h"

namespace dynex
{
namespace obs
{

namespace
{

void
appendStats(std::string &out, const char *key, const CacheStats &stats)
{
    out += '"';
    out += key;
    out += "\":{\"accesses\":" + std::to_string(stats.accesses) +
           ",\"hits\":" + std::to_string(stats.hits) +
           ",\"misses\":" + std::to_string(stats.misses) +
           ",\"coldMisses\":" + std::to_string(stats.coldMisses) +
           ",\"fills\":" + std::to_string(stats.fills) +
           ",\"bypasses\":" + std::to_string(stats.bypasses) +
           ",\"evictions\":" + std::to_string(stats.evictions) +
           ",\"missPct\":" + jsonDouble(stats.missPercent()) + "}";
}

const std::array<FsmEvent, 5> kAllFsmEvents = {
    FsmEvent::ColdFill, FsmEvent::Hit, FsmEvent::ReplaceUnsticky,
    FsmEvent::ReplaceHitLast, FsmEvent::Bypass};

const std::array<Counter, kCounterCount> kAllCounters = {
    Counter::TraceLoadNs,  Counter::TraceLoadRefs,
    Counter::IndexBuildNs, Counter::IndexBuilds,
    Counter::ReplayChunks, Counter::KernelClosedFormRefs};

/** Wall-clock counters are excluded at Deterministic detail. */
bool
isTimingCounter(Counter counter)
{
    return counter == Counter::TraceLoadNs ||
           counter == Counter::IndexBuildNs;
}

} // namespace

RunReport
RunReport::build(RunInfo info, const MetricsCollector &collector,
                 std::vector<ReportFailure> failures)
{
    RunReport report;
    report.run = std::move(info);
    report.legs.reserve(collector.legCount());
    for (std::size_t i = 0; i < collector.legCount(); ++i)
        report.legs.push_back(collector.legAt(i));
    for (const Counter counter : kAllCounters)
        report.counters[static_cast<std::size_t>(counter)] =
            collector.total(counter);
    for (const auto &failure : failures) {
        for (auto &leg : report.legs) {
            if (leg.bench != failure.bench)
                continue;
            if (failure.sizeBytes != 0 &&
                leg.sizeBytes != failure.sizeBytes)
                continue;
            leg.failed = true;
            if (leg.failure.empty())
                leg.failure = failure.status;
        }
    }
    report.failures = std::move(failures);
    return report;
}

std::string
RunReport::toJson(ReportDetail detail) const
{
    const bool full = detail == ReportDetail::Full;
    std::string out = "{\n\"schema\":\"dynex-metrics-v1\",\n";

    out += "\"run\":{\"trace\":";
    appendJsonString(out, run.trace);
    out += ",\"refs\":" + std::to_string(run.refs) +
           ",\"lineBytes\":" + std::to_string(run.lineBytes) +
           ",\"engine\":";
    appendJsonString(out, run.engine);
    if (full)
        out += ",\"workers\":" + std::to_string(run.workers);
    out += "},\n";

    out += "\"counters\":{";
    bool first = true;
    for (const Counter counter : kAllCounters) {
        if (!full && isTimingCounter(counter))
            continue;
        if (!first)
            out += ',';
        first = false;
        appendJsonString(out, counterName(counter));
        out += ':' +
               std::to_string(counters[static_cast<std::size_t>(counter)]);
    }
    out += "},\n";

    if (!extra.empty()) {
        out += "\"server\":{";
        for (std::size_t e = 0; e < extra.size(); ++e) {
            if (e)
                out += ',';
            appendJsonString(out, extra[e].first);
            out += ':' + std::to_string(extra[e].second);
        }
        out += "},\n";
    }

    out += "\"legs\":[";
    for (std::size_t i = 0; i < legs.size(); ++i) {
        const LegMetrics &leg = legs[i];
        out += i ? ",\n" : "\n";
        out += "{\"bench\":";
        appendJsonString(out, leg.bench);
        out += ",\"sizeBytes\":" + std::to_string(leg.sizeBytes) +
               ",\"ok\":" +
               (leg.done && !leg.failed ? "true" : "false") +
               ",\"refs\":" + std::to_string(leg.refs) + ",";
        appendStats(out, "dm", leg.dm);
        out += ',';
        appendStats(out, "de", leg.de);
        out += ',';
        appendStats(out, "opt", leg.opt);
        out += ",\"deEvents\":{";
        for (std::size_t e = 0; e < kAllFsmEvents.size(); ++e) {
            if (e)
                out += ',';
            appendJsonString(out, fsmEventName(kAllFsmEvents[e]));
            out += ':' +
                   std::to_string(leg.deEvents.of(kAllFsmEvents[e]));
        }
        out += "},\"deGainPct\":" +
               jsonDouble(percentReduction(leg.dm.missPercent(),
                                           leg.de.missPercent()));
        if (full)
            out += ",\"timing\":{\"replayNs\":" +
                   std::to_string(leg.replayNs) +
                   ",\"dmReplayNs\":" + std::to_string(leg.dmReplayNs) +
                   ",\"deReplayNs\":" + std::to_string(leg.deReplayNs) +
                   ",\"optReplayNs\":" +
                   std::to_string(leg.optReplayNs) + "}";
        if (leg.failed) {
            out += ",\"failure\":";
            appendJsonString(out, leg.failure);
        }
        out += '}';
    }
    out += "\n],\n";

    out += "\"failures\":[";
    for (std::size_t i = 0; i < failures.size(); ++i) {
        const ReportFailure &failure = failures[i];
        out += i ? ",\n" : "\n";
        out += "{\"bench\":";
        appendJsonString(out, failure.bench);
        out += ",\"sizeBytes\":" + std::to_string(failure.sizeBytes) +
               ",\"model\":";
        appendJsonString(out, failure.model);
        out += ",\"status\":";
        appendJsonString(out, failure.status);
        out += '}';
    }
    out += "\n]\n}\n";
    return out;
}

std::string
RunReport::toCsv(ReportDetail detail) const
{
    const bool full = detail == ReportDetail::Full;
    std::ostringstream out;
    CsvWriter csv(out);

    std::vector<std::string> header = {
        "bench",        "size_bytes",  "ok",
        "refs",         "dm_miss_pct", "de_miss_pct",
        "opt_miss_pct", "de_gain_pct", "de_cold_fill",
        "de_hit",       "de_replace_unsticky",
        "de_replace_hit_last",         "de_bypass"};
    if (full)
        header.push_back("replay_ns");
    csv.writeRow(header);

    for (const LegMetrics &leg : legs) {
        std::vector<std::string> row = {
            leg.bench,
            std::to_string(leg.sizeBytes),
            leg.done && !leg.failed ? "1" : "0",
            std::to_string(leg.refs),
            jsonDouble(leg.dm.missPercent()),
            jsonDouble(leg.de.missPercent()),
            jsonDouble(leg.opt.missPercent()),
            jsonDouble(percentReduction(leg.dm.missPercent(),
                                        leg.de.missPercent())),
            std::to_string(leg.deEvents.of(FsmEvent::ColdFill)),
            std::to_string(leg.deEvents.of(FsmEvent::Hit)),
            std::to_string(
                leg.deEvents.of(FsmEvent::ReplaceUnsticky)),
            std::to_string(
                leg.deEvents.of(FsmEvent::ReplaceHitLast)),
            std::to_string(leg.deEvents.of(FsmEvent::Bypass))};
        if (full)
            row.push_back(std::to_string(leg.replayNs));
        csv.writeRow(row);
    }
    return out.str();
}

} // namespace obs
} // namespace dynex

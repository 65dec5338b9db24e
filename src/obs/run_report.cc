#include "obs/run_report.h"

#include <cerrno>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <sstream>

#include "cache/exclusion_fsm.h"
#include "util/csv.h"
#include "util/stats.h"

namespace dynex
{
namespace obs
{

namespace
{

/** JSON string escaping (names come from traces and status text). */
std::string
jsonString(const std::string &text)
{
    std::string out = "\"";
    for (const char c : text) {
        switch (c) {
          case '"':
            out += "\\\"";
            break;
          case '\\':
            out += "\\\\";
            break;
          case '\n':
            out += "\\n";
            break;
          case '\r':
            out += "\\r";
            break;
          case '\t':
            out += "\\t";
            break;
          default:
            if (static_cast<unsigned char>(c) < 0x20) {
                char buf[8];
                std::snprintf(buf, sizeof(buf), "\\u%04x",
                              static_cast<unsigned>(
                                  static_cast<unsigned char>(c)));
                out += buf;
            } else {
                out += c;
            }
        }
    }
    out += '"';
    return out;
}

/** Shortest round-trippable decimal: the same double always renders
 * the same bytes, which the byte-stability guarantee rests on. */
std::string
jsonDouble(double value)
{
    char buf[40];
    std::snprintf(buf, sizeof(buf), "%.17g", value);
    return buf;
}

std::string
jsonU64(std::uint64_t value)
{
    return std::to_string(value);
}

void
appendStats(std::string &out, const char *key, const CacheStats &stats)
{
    out += '"';
    out += key;
    out += "\":{\"accesses\":" + jsonU64(stats.accesses) +
           ",\"hits\":" + jsonU64(stats.hits) +
           ",\"misses\":" + jsonU64(stats.misses) +
           ",\"coldMisses\":" + jsonU64(stats.coldMisses) +
           ",\"fills\":" + jsonU64(stats.fills) +
           ",\"bypasses\":" + jsonU64(stats.bypasses) +
           ",\"evictions\":" + jsonU64(stats.evictions) +
           ",\"missPct\":" + jsonDouble(stats.missPercent()) + "}";
}

const std::array<FsmEvent, 5> kAllFsmEvents = {
    FsmEvent::ColdFill, FsmEvent::Hit, FsmEvent::ReplaceUnsticky,
    FsmEvent::ReplaceHitLast, FsmEvent::Bypass};

const std::array<Counter, kCounterCount> kAllCounters = {
    Counter::TraceLoadNs,  Counter::TraceLoadRefs,
    Counter::IndexBuildNs, Counter::IndexBuilds,
    Counter::ReplayChunks, Counter::SrvRequests,
    Counter::SrvErrors,    Counter::SrvBusy,
    Counter::SrvBytesIn,   Counter::SrvBytesOut,
    Counter::StoreHits,    Counter::StoreMisses,
    Counter::StoreEvictions, Counter::SrvAdmitted,
    Counter::SrvShed,      Counter::SrvRetryAfterMs,
    Counter::ChaosBusy,    Counter::ChaosTrunc,
    Counter::ChaosDelay,   Counter::ChaosLoadFail};

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

    out += "\"run\":{\"trace\":" + jsonString(run.trace) +
           ",\"refs\":" + jsonU64(run.refs) +
           ",\"lineBytes\":" + jsonU64(run.lineBytes) +
           ",\"engine\":" + jsonString(run.engine);
    if (full)
        out += ",\"workers\":" + jsonU64(run.workers);
    out += "},\n";

    out += "\"counters\":{";
    bool first = true;
    for (const Counter counter : kAllCounters) {
        if (!full && isTimingCounter(counter))
            continue;
        if (!first)
            out += ',';
        first = false;
        out += '"';
        out += counterName(counter);
        out += "\":";
        out +=
            jsonU64(counters[static_cast<std::size_t>(counter)]);
    }
    out += "},\n";

    if (!extra.empty()) {
        out += "\"server\":{";
        for (std::size_t e = 0; e < extra.size(); ++e) {
            if (e)
                out += ',';
            out += '"';
            out += extra[e].first;
            out += "\":" + jsonU64(extra[e].second);
        }
        out += "},\n";
    }

    out += "\"legs\":[";
    for (std::size_t i = 0; i < legs.size(); ++i) {
        const LegMetrics &leg = legs[i];
        out += i ? ",\n" : "\n";
        out += "{\"bench\":" + jsonString(leg.bench) +
               ",\"sizeBytes\":" + jsonU64(leg.sizeBytes) +
               ",\"ok\":" +
               (leg.done && !leg.failed ? "true" : "false") +
               ",\"refs\":" + jsonU64(leg.refs) + ",";
        appendStats(out, "dm", leg.dm);
        out += ',';
        appendStats(out, "de", leg.de);
        out += ',';
        appendStats(out, "opt", leg.opt);
        out += ",\"deEvents\":{";
        for (std::size_t e = 0; e < kAllFsmEvents.size(); ++e) {
            if (e)
                out += ',';
            out += '"';
            out += fsmEventName(kAllFsmEvents[e]);
            out += "\":" + jsonU64(leg.deEvents.of(kAllFsmEvents[e]));
        }
        out += "},\"deGainPct\":" +
               jsonDouble(percentReduction(leg.dm.missPercent(),
                                           leg.de.missPercent()));
        if (full)
            out += ",\"timing\":{\"replayNs\":" +
                   jsonU64(leg.replayNs) +
                   ",\"dmReplayNs\":" + jsonU64(leg.dmReplayNs) +
                   ",\"deReplayNs\":" + jsonU64(leg.deReplayNs) +
                   ",\"optReplayNs\":" + jsonU64(leg.optReplayNs) +
                   "}";
        if (leg.failed)
            out += ",\"failure\":" + jsonString(leg.failure);
        out += '}';
    }
    out += "\n],\n";

    out += "\"failures\":[";
    for (std::size_t i = 0; i < failures.size(); ++i) {
        const ReportFailure &failure = failures[i];
        out += i ? ",\n" : "\n";
        out += "{\"bench\":" + jsonString(failure.bench) +
               ",\"sizeBytes\":" + jsonU64(failure.sizeBytes) +
               ",\"model\":" + jsonString(failure.model) +
               ",\"status\":" + jsonString(failure.status) + '}';
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

Status
writeTextFile(const std::string &path, const std::string &content)
{
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    if (!out)
        return Status::ioError("cannot open " + path + ": " +
                               std::strerror(errno));
    out.write(content.data(),
              static_cast<std::streamsize>(content.size()));
    out.flush();
    if (!out)
        return Status::ioError("cannot write " + path + ": " +
                               std::strerror(errno));
    return Status();
}

} // namespace obs
} // namespace dynex

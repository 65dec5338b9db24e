/**
 * @file
 * dynex_loadgen: a load-generation harness for dynex_serve.
 *
 *   dynex_loadgen --port P [--host H] [--mode open|closed]
 *                 [--rps R] [--clients N] [--duration-ms D]
 *                 [--mix ping=8,ls=1,sweep=1] [--trace NAME]
 *                 [--line L] [--replay E] [--seed S]
 *                 [--retries N] [--backoff-ms N] [--deadline-ms N]
 *                 [--latency-budget-ms B] [--report F]
 *
 * Drives a running dynex_serve with a configurable request mix from N
 * concurrent clients, either open-loop (Poisson arrivals at a target
 * aggregate RPS: a late request is sent immediately, so offered load
 * does not shrink when the server slows down) or closed-loop
 * (back-to-back). Each client identifies itself via the DXP1 hello
 * ("loadgen-<i>") and retries BUSY sheds / transport faults per
 * --retries, honoring the server's retryAfterMs hints.
 *
 * Reports p50/p95/p99 latency, achieved throughput, and
 * BUSY/shed/retry counts as a table on stdout and, with --report, as
 * a dynex-metrics-v1 JSON run report (loadgen rows in the "server"
 * section). The report also embeds the server's own view of the run:
 * a STATS snapshot is taken before and after the load and the delta
 * of every scalar counter lands as a srv-delta-<name> row, so the
 * report pairs client-observed latency with what the server actually
 * did (admissions, sheds, store churn). Exit is nonzero when nothing
 * succeeded or when p95 exceeds --latency-budget-ms, so a ctest can
 * gate on "the daemon sustains this mix within budget".
 *
 * Exit codes: 0 ok, 1 budget exceeded / no progress, 2 usage,
 * 3 I/O error.
 */

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <thread>
#include <vector>

#include "obs/json.h"
#include "obs/metrics.h"
#include "obs/run_report.h"
#include "server/client.h"
#include "sim/kernel.h"
#include "util/rng.h"
#include "util/string_utils.h"
#include "util/table.h"
#include "util/version.h"

namespace
{

using namespace dynex;

struct MixWeights
{
    unsigned ping = 8;
    unsigned ls = 1;
    unsigned sweep = 1;

    unsigned total() const { return ping + ls + sweep; }
};

struct Options
{
    std::string host = "127.0.0.1";
    std::uint16_t port = 0;
    bool openLoop = true;
    double rps = 50.0;           // open-loop aggregate target
    unsigned clients = 4;
    std::uint32_t durationMs = 2000;
    MixWeights mix;
    std::string trace = "espresso";
    std::uint32_t lineBytes = 4;
    // DXP1 sweep engine byte (a ReplayEngine value).
    std::uint8_t engine = static_cast<std::uint8_t>(ReplayEngine::Kernel);
    std::uint64_t seed = 1992;
    unsigned retries = 0;
    std::uint32_t backoffMs = 50;
    std::uint32_t deadlineMs = 0;
    std::uint32_t latencyBudgetMs = 0; // 0 = no gate
    std::string reportOut;
};

/** The usage text, to stdout for --help (exit 0), else stderr (2). */
int
usage(std::FILE *out)
{
    std::fprintf(
        out,
        "usage: dynex_loadgen --port P [options]\n"
        "  --host H           server address (default 127.0.0.1)\n"
        "  --mode open|closed open: Poisson arrivals at --rps;\n"
        "                     closed: back-to-back (default open)\n"
        "  --rps R            open-loop aggregate request rate\n"
        "                     (default 50)\n"
        "  --clients N        concurrent client connections\n"
        "                     (default 4)\n"
        "  --duration-ms D    run length (default 2000)\n"
        "  --mix SPEC         request mix weights, e.g.\n"
        "                     ping=8,ls=1,sweep=1 (the default)\n"
        "  --trace NAME       trace for sweep requests\n"
        "                     (default espresso)\n"
        "  --line L           line bytes for sweep requests\n"
        "                     (default 4)\n"
        "  --replay E         sweep engine: kernel|per-leg\n"
        "                     (batched is an alias of kernel)\n"
        "  --seed S           arrival/jitter seed (default 1992)\n"
        "  --retries N        per-request retry attempts\n"
        "  --backoff-ms N     base retry backoff (default 50)\n"
        "  --deadline-ms N    per-request deadline + retry budget\n"
        "  --latency-budget-ms B  exit 1 when p95 latency exceeds B\n"
        "  --report F         write a dynex-metrics-v1 JSON report\n"
        "  --version          print the version and exit\n"
        "  --help, -h         print this text to stdout and exit\n"
        "exit codes: 0 ok, 1 budget exceeded or no progress,\n"
        "            2 usage, 3 i/o error\n");
    return out == stdout ? 0 : 2;
}

bool
parseMix(const std::string &text, MixWeights &mix)
{
    MixWeights parsed;
    parsed.ping = parsed.ls = parsed.sweep = 0;
    for (const std::string &field : split(text, ','))
    {
        const std::string entry = trim(field);
        const std::size_t eq = entry.find('=');
        if (eq == std::string::npos)
            return false;
        const std::string key = trim(entry.substr(0, eq));
        const std::string value = trim(entry.substr(eq + 1));
        char *end = nullptr;
        const unsigned long weight =
            std::strtoul(value.c_str(), &end, 10);
        if (end == value.c_str() || *end != '\0')
            return false;
        if (key == "ping")
            parsed.ping = static_cast<unsigned>(weight);
        else if (key == "ls")
            parsed.ls = static_cast<unsigned>(weight);
        else if (key == "sweep")
            parsed.sweep = static_cast<unsigned>(weight);
        else
            return false;
    }
    if (parsed.total() == 0)
        return false;
    mix = parsed;
    return true;
}

enum class ReqKind
{
    Ping,
    Ls,
    Sweep,
};

/** Everything one worker thread measured. */
struct WorkerResult
{
    std::vector<std::uint64_t> latenciesUs; ///< successful requests
    std::uint64_t sent = 0;
    std::uint64_t ok = 0;
    std::uint64_t failed = 0;
    server::RetryStats retry;
    Status firstError;
};

std::uint64_t
nowUs()
{
    return static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::microseconds>(
            std::chrono::steady_clock::now().time_since_epoch())
            .count());
}

void
workerMain(const Options &options, unsigned index,
           WorkerResult &result)
{
    server::Client client;
    client.setClientId("loadgen-" + std::to_string(index));
    if (options.retries > 0)
    {
        server::RetryPolicy policy;
        policy.retries = options.retries;
        policy.backoffMs = options.backoffMs;
        policy.budgetMs = options.deadlineMs;
        policy.seed = options.seed + 0x9e37ull * index;
        client.setRetryPolicy(policy);
    }
    const Status connected = client.connect(options.host, options.port);
    if (!connected.ok())
    {
        result.firstError = connected;
        return;
    }

    Rng rng(options.seed + index);
    const double perThreadRps =
        options.rps / std::max(1u, options.clients);
    const std::uint64_t startUs = nowUs();
    const std::uint64_t endUs =
        startUs + static_cast<std::uint64_t>(options.durationMs) * 1000;
    // Open loop: the next arrival is scheduled on an exponential
    // clock that never waits for the previous response.
    double nextArrivalUs = static_cast<double>(startUs);

    while (true)
    {
        if (options.openLoop)
        {
            // Exponential inter-arrival: -ln(U) / rate.
            const double u = std::max(rng.nextDouble(), 1e-12);
            nextArrivalUs += -std::log(u) / perThreadRps * 1e6;
            if (nextArrivalUs > static_cast<double>(endUs))
                break;
            const std::uint64_t now = nowUs();
            if (static_cast<double>(now) < nextArrivalUs)
                std::this_thread::sleep_for(std::chrono::microseconds(
                    static_cast<std::uint64_t>(nextArrivalUs) - now));
            // Behind schedule: send immediately, offered load holds.
        }
        else if (nowUs() >= endUs)
        {
            break;
        }

        // Weighted request pick from the mix.
        const std::uint64_t pick =
            rng.nextBelow(options.mix.total());
        const ReqKind kind = pick < options.mix.ping ? ReqKind::Ping
                             : pick < options.mix.ping + options.mix.ls
                                 ? ReqKind::Ls
                                 : ReqKind::Sweep;

        const std::uint64_t sentUs = nowUs();
        Status status;
        switch (kind)
        {
        case ReqKind::Ping:
            status = client.ping().status();
            break;
        case ReqKind::Ls:
            status = client.list().status();
            break;
        case ReqKind::Sweep:
        {
            server::SweepRequest request;
            request.trace = options.trace;
            request.lineBytes = options.lineBytes;
            request.engine = options.engine;
            request.deadlineMs = options.deadlineMs;
            status = client.sweep(request).status();
            break;
        }
        }
        ++result.sent;
        if (status.ok())
        {
            ++result.ok;
            result.latenciesUs.push_back(nowUs() - sentUs);
        }
        else
        {
            ++result.failed;
            if (result.firstError.ok())
                result.firstError = status;
        }
    }
    result.retry = client.retryStats();
}

std::uint64_t
percentileUs(const std::vector<std::uint64_t> &sorted, double pct)
{
    if (sorted.empty())
        return 0;
    const double rank = pct / 100.0 *
                        static_cast<double>(sorted.size() - 1);
    return sorted[static_cast<std::size_t>(rank + 0.5)];
}

using StatsSnapshot =
    std::vector<std::pair<std::string, std::uint64_t>>;

/** One STATS round-trip on a throwaway connection; empty on any
 * failure (the load run itself is unaffected). */
StatsSnapshot
fetchServerStats(const Options &options)
{
    server::Client control;
    control.setClientId("loadgen-control");
    if (!control.connect(options.host, options.port).ok())
        return {};
    const Result<server::StatsResult> stats = control.stats();
    if (!stats.ok())
        return {};
    return stats.value().counters;
}

/** before/after server counter deltas as srv-delta-<name> rows.
 * Latency rows (percentiles, buckets) are snapshots of a merged
 * histogram, not monotonic counters, so they are left out. */
void
appendServerDelta(const StatsSnapshot &before,
                  const StatsSnapshot &after, StatsSnapshot &rows)
{
    for (const auto &[name, afterValue] : after)
    {
        if (name.compare(0, 4, "lat-") == 0)
            continue;
        std::uint64_t beforeValue = 0;
        for (const auto &[beforeName, value] : before)
        {
            if (beforeName == name)
            {
                beforeValue = value;
                break;
            }
        }
        // Gauges (store-resident-bytes) can shrink; report those as
        // their absolute after-value rather than a wrapped delta.
        rows.emplace_back("srv-delta-" + name,
                          afterValue >= beforeValue
                              ? afterValue - beforeValue
                              : afterValue);
    }
}

} // namespace

int
main(int argc, char **argv)
{
    Options options;
    for (int i = 1; i < argc; ++i)
    {
        const std::string flag = argv[i];
        if (flag == "--help" || flag == "-h")
            return usage(stdout);
        if (flag == "--version")
        {
            std::printf("dynex_loadgen %s\n", versionString());
            return 0;
        }
        // Taken only by a flag that wants one, so an unknown flag is
        // reported as unknown whether or not a value follows it.
        auto value = [&]() -> const char * {
            if (i + 1 >= argc)
            {
                std::fprintf(stderr,
                             "dynex_loadgen: %s needs a value\n",
                             flag.c_str());
                std::exit(2);
            }
            return argv[++i];
        };
        if (flag == "--host")
            options.host = value();
        else if (flag == "--port")
            options.port = static_cast<std::uint16_t>(
                std::strtoul(value(), nullptr, 10));
        else if (flag == "--mode")
        {
            const char *const v = value();
            if (iequals(v, "open"))
                options.openLoop = true;
            else if (iequals(v, "closed"))
                options.openLoop = false;
            else
            {
                std::fprintf(stderr,
                             "dynex_loadgen: bad --mode '%s'\n", v);
                return 2;
            }
        }
        else if (flag == "--rps")
        {
            options.rps = std::strtod(value(), nullptr);
            if (options.rps <= 0)
            {
                std::fprintf(stderr,
                             "dynex_loadgen: --rps must be > 0\n");
                return 2;
            }
        }
        else if (flag == "--clients")
            options.clients = std::max(
                1u,
                static_cast<unsigned>(std::strtoul(value(), nullptr, 10)));
        else if (flag == "--duration-ms")
            options.durationMs = static_cast<std::uint32_t>(
                std::strtoul(value(), nullptr, 10));
        else if (flag == "--mix")
        {
            const char *const v = value();
            if (!parseMix(v, options.mix))
            {
                std::fprintf(stderr,
                             "dynex_loadgen: bad --mix '%s' (want "
                             "ping=N,ls=N,sweep=N)\n",
                             v);
                return 2;
            }
        }
        else if (flag == "--trace")
            options.trace = value();
        else if (flag == "--line")
            options.lineBytes = static_cast<std::uint32_t>(
                std::strtoul(value(), nullptr, 10));
        else if (flag == "--replay")
        {
            const char *const v = value();
            const std::optional<ReplayEngine> engine =
                parseReplayEngine(v);
            if (!engine)
            {
                std::fprintf(stderr,
                             "dynex_loadgen: bad --replay '%s'\n", v);
                return 2;
            }
            options.engine = static_cast<std::uint8_t>(*engine);
        }
        else if (flag == "--seed")
            options.seed = std::strtoull(value(), nullptr, 10);
        else if (flag == "--retries")
            options.retries =
                static_cast<unsigned>(std::strtoul(value(), nullptr, 10));
        else if (flag == "--backoff-ms")
            options.backoffMs = static_cast<std::uint32_t>(
                std::strtoul(value(), nullptr, 10));
        else if (flag == "--deadline-ms")
            options.deadlineMs = static_cast<std::uint32_t>(
                std::strtoul(value(), nullptr, 10));
        else if (flag == "--latency-budget-ms")
            options.latencyBudgetMs = static_cast<std::uint32_t>(
                std::strtoul(value(), nullptr, 10));
        else if (flag == "--report")
            options.reportOut = value();
        else
        {
            std::fprintf(stderr,
                         "dynex_loadgen: unknown option '%s'\n",
                         flag.c_str());
            return usage(stderr);
        }
    }
    if (options.port == 0)
    {
        std::fprintf(stderr, "dynex_loadgen: --port is required\n");
        return usage(stderr);
    }

    // Server-side view of the run, for --report: counters before the
    // first request and after the last.
    StatsSnapshot statsBefore;
    if (!options.reportOut.empty())
        statsBefore = fetchServerStats(options);

    const std::uint64_t runStartUs = nowUs();
    std::vector<WorkerResult> results(options.clients);
    std::vector<std::thread> threads;
    threads.reserve(options.clients);
    for (unsigned c = 0; c < options.clients; ++c)
        threads.emplace_back(
            [&options, c, &results] {
                workerMain(options, c, results[c]);
            });
    for (std::thread &thread : threads)
        thread.join();
    const std::uint64_t runUs = std::max<std::uint64_t>(
        nowUs() - runStartUs, 1);

    // Aggregate.
    std::vector<std::uint64_t> latencies;
    std::uint64_t sent = 0, ok = 0, failed = 0;
    server::RetryStats retry;
    Status firstError;
    for (const WorkerResult &result : results)
    {
        latencies.insert(latencies.end(), result.latenciesUs.begin(),
                         result.latenciesUs.end());
        sent += result.sent;
        ok += result.ok;
        failed += result.failed;
        retry.attempts += result.retry.attempts;
        retry.retries += result.retry.retries;
        retry.busyResponses += result.retry.busyResponses;
        retry.transportFailures += result.retry.transportFailures;
        retry.sleptMs += result.retry.sleptMs;
        if (firstError.ok() && !result.firstError.ok())
            firstError = result.firstError;
    }
    std::sort(latencies.begin(), latencies.end());
    const std::uint64_t p50 = percentileUs(latencies, 50);
    const std::uint64_t p95 = percentileUs(latencies, 95);
    const std::uint64_t p99 = percentileUs(latencies, 99);
    const double achievedRps =
        static_cast<double>(ok) * 1e6 / static_cast<double>(runUs);

    Table table;
    table.setHeader({"metric", "value"});
    table.addRow({"mode", options.openLoop ? "open" : "closed"});
    table.addRow({"clients", std::to_string(options.clients)});
    table.addRow({"duration-ms",
                  std::to_string(runUs / 1000)});
    table.addRow({"requests-sent", std::to_string(sent)});
    table.addRow({"requests-ok", std::to_string(ok)});
    table.addRow({"requests-failed", std::to_string(failed)});
    table.addRow({"busy-responses",
                  std::to_string(retry.busyResponses)});
    table.addRow({"retries", std::to_string(retry.retries)});
    table.addRow({"transport-failures",
                  std::to_string(retry.transportFailures)});
    table.addRow({"backoff-slept-ms", std::to_string(retry.sleptMs)});
    table.addRow({"achieved-rps", Table::fmt(achievedRps, 1)});
    table.addRow({"latency-p50-us", std::to_string(p50)});
    table.addRow({"latency-p95-us", std::to_string(p95)});
    table.addRow({"latency-p99-us", std::to_string(p99)});
    std::printf("%s", table.toText().c_str());
    if (!firstError.ok())
        std::fprintf(stderr, "dynex_loadgen: first error: %s\n",
                     firstError.toString().c_str());

    if (!options.reportOut.empty())
    {
        obs::MetricsCollector collector;
        obs::RunInfo info;
        info.trace = options.trace;
        info.refs = 0;
        info.lineBytes = options.lineBytes;
        info.engine = "loadgen";
        info.workers = options.clients;
        obs::RunReport report =
            obs::RunReport::build(info, collector, {});
        report.extra = {
            {"requests-sent", sent},
            {"requests-ok", ok},
            {"requests-failed", failed},
            {"busy-responses", retry.busyResponses},
            {"retries", retry.retries},
            {"transport-failures", retry.transportFailures},
            {"backoff-slept-ms", retry.sleptMs},
            {"achieved-rps-x1000",
             static_cast<std::uint64_t>(achievedRps * 1000.0)},
            {"latency-p50-us", p50},
            {"latency-p95-us", p95},
            {"latency-p99-us", p99},
            {"run-us", runUs},
        };
        appendServerDelta(statsBefore, fetchServerStats(options),
                          report.extra);
        const Status wrote =
            obs::writeTextFile(options.reportOut, report.toJson());
        if (!wrote.ok())
        {
            std::fprintf(stderr, "dynex_loadgen: cannot write %s: %s\n",
                         options.reportOut.c_str(),
                         wrote.toString().c_str());
            return 3;
        }
    }

    if (ok == 0)
    {
        std::fprintf(stderr,
                     "dynex_loadgen: no request ever succeeded\n");
        return 1;
    }
    if (options.latencyBudgetMs > 0 &&
        p95 > static_cast<std::uint64_t>(options.latencyBudgetMs) * 1000)
    {
        std::fprintf(stderr,
                     "dynex_loadgen: p95 %llu us exceeds the %u ms "
                     "budget\n",
                     static_cast<unsigned long long>(p95),
                     options.latencyBudgetMs);
        return 1;
    }
    return 0;
}

/**
 * @file
 * dynex_serve: the simulation server daemon.
 *
 *   dynex_serve [--port P] [--port-file F] [--workers N] [--queue N]
 *               [--store-budget SIZE] [--refs N]
 *               [--bench NAME]... [--trace FILE]... [--suite]
 *               [--admission-budget-ms N] [--client-burst-ms N]
 *               [--no-admission]
 *               [--chaos-seed N] [--chaos-spec SPEC]
 *               [--metrics-out F] [--trace-out F]
 *               [--log-json] [--log-level L] [--log-rate N]
 *               [--slow-request-ms N] [--no-telemetry]
 *               [--test-delay-ms N]
 *
 * Serves the DXP1 protocol (see docs/serving.md) over loopback TCP:
 * ping, trace listing, single replays, and full size sweeps, with a
 * byte-budgeted LRU cache of replay artifacts shared across requests.
 * With no --bench/--trace/--suite the whole synthetic suite is served.
 *
 * The process runs until SIGINT/SIGTERM, then drains gracefully:
 * in-flight requests finish, new connections stop being accepted, and
 * — when --metrics-out/--trace-out were given — the lifetime metrics
 * report and Chrome trace are written on the way out.
 *
 * Exit codes: 0 ok, 2 usage error, 3 I/O error (bind/write failures).
 */

#include <algorithm>
#include <atomic>
#include <chrono>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "obs/json.h"
#include "obs/log.h"
#include "obs/metrics.h"
#include "obs/run_report.h"
#include "obs/trace_events.h"
#include "server/server.h"
#include "sim/sweep.h"
#include "tracegen/spec.h"
#include "util/string_utils.h"
#include "util/thread_pool.h"
#include "util/version.h"

namespace
{

using namespace dynex;

std::atomic<bool> gStopRequested{false};

void onSignal(int)
{
    gStopRequested.store(true, std::memory_order_relaxed);
}

/** The usage text, to stdout for --help (exit 0), else stderr (2). */
int usage(std::FILE *out)
{
    std::fprintf(
        out,
        "usage: dynex_serve [options]\n"
        "\n"
        "  --port P          listen port (default: ephemeral)\n"
        "  --port-file F     write the bound port to F once listening\n"
        "  --workers N       connection worker threads (default 1)\n"
        "  --queue N         accepted-connection queue capacity; a\n"
        "                    full queue answers BUSY (default 16)\n"
        "  --store-budget S  TraceStore byte budget, e.g. 512M\n"
        "                    (default 1G); charges each warm replay\n"
        "                    artifact (8 B/ref) plus any trace a\n"
        "                    replay or per-leg sweep decoded (16 B/ref)\n"
        "  --refs N          synthetic references per benchmark\n"
        "  --bench NAME      serve one suite benchmark (repeatable)\n"
        "  --trace FILE      serve a .dxt/.dxt3/.din trace file\n"
        "                    (repeatable)\n"
        "  --suite           serve every suite benchmark\n"
        "  --admission-budget-ms N  concurrent estimated-cost budget\n"
        "                    for admission control (default 2000); a\n"
        "                    replay/sweep estimated to push past it is\n"
        "                    shed with BUSY + retryAfterMs\n"
        "  --client-burst-ms N  per-client token-bucket burst for fair\n"
        "                    admission (default 1000)\n"
        "  --no-admission    disable admission control entirely\n"
        "  --chaos-seed N    seed for deterministic fault injection\n"
        "                    (default 1992)\n"
        "  --chaos-spec S    enable seeded chaos, e.g.\n"
        "                    busy=0.2,trunc=0.1,delay=0.3,delay-ms=20,\n"
        "                    load-fail=0.4 (probabilities in [0,1];\n"
        "                    off by default)\n"
        "  --metrics-out F   write a JSON run report on shutdown\n"
        "  --trace-out F     write Chrome trace events on shutdown\n"
        "  --log-json        emit structured JSONL request logs on\n"
        "                    stderr (one JSON object per line)\n"
        "  --log-level L     log threshold: debug|info|warn|error\n"
        "                    (default info; implies --log-json)\n"
        "  --log-rate N      info/debug lines admitted per second, 0\n"
        "                    = unlimited (default 200); warn/error\n"
        "                    lines are never rate-limited\n"
        "  --slow-request-ms N  warn-log any request slower than N ms\n"
        "                    end-to-end (implies --log-json)\n"
        "  --no-telemetry    disable latency histograms, request spans\n"
        "                    and request logs (flat counters remain)\n"
        "  --test-delay-ms N (testing) stall each request N ms before\n"
        "                    executing, to exercise deadlines\n"
        "  --version         print the server version and exit\n"
        "  --help, -h        print this text to stdout and exit\n"
        "\n"
        "exit codes: 0 ok, 2 usage, 3 io error\n");
    return out == stdout ? 0 : 2;
}

/** @return 0, or 3 after saying on stderr why @p path could not be
 * written. */
int writeOrComplain(const std::string &path, const Status &status)
{
    if (status.ok())
        return 0;
    std::fprintf(stderr, "dynex_serve: cannot write %s: %s\n",
                 path.c_str(), status.toString().c_str());
    return 3;
}

std::string stemOf(const std::string &path)
{
    return std::filesystem::path(path).stem().string();
}

void addSuite(server::ServerConfig &config)
{
    for (const auto &info : specSuite())
        config.traces.push_back({info.name, "", 0});
}

} // namespace

int main(int argc, char **argv)
{
    server::ServerConfig config;
    std::string portFile;
    std::string metricsOut;
    std::string traceOut;
    bool explicitTraces = false;
    bool logJson = false;
    obs::LoggerOptions logOptions;

    for (int i = 1; i < argc; ++i)
    {
        const std::string flag = argv[i];
        // Taken only by a flag that wants one, so an unknown flag is
        // reported as unknown whether or not a value follows it.
        auto value = [&]() -> const char * {
            if (i + 1 >= argc)
            {
                std::fprintf(stderr, "dynex_serve: %s needs a value\n",
                             flag.c_str());
                std::exit(2);
            }
            return argv[++i];
        };
        if (flag == "--help" || flag == "-h")
            return usage(stdout);
        if (flag == "--version")
        {
            std::printf("dynex_serve %s\n", versionString());
            return 0;
        }
        if (flag == "--suite")
        {
            addSuite(config);
            explicitTraces = true;
            continue;
        }
        if (flag == "--no-admission")
        {
            config.admission.enabled = false;
            continue;
        }
        if (flag == "--log-json")
        {
            logJson = true;
            continue;
        }
        if (flag == "--no-telemetry")
        {
            config.telemetry = false;
            continue;
        }
        if (flag == "--port")
        {
            config.port = static_cast<std::uint16_t>(
                std::strtoul(value(), nullptr, 10));
        }
        else if (flag == "--port-file")
        {
            portFile = value();
        }
        else if (flag == "--workers")
        {
            config.workers = static_cast<unsigned>(
                std::strtoul(value(), nullptr, 10));
        }
        else if (flag == "--queue")
        {
            config.queueCapacity = std::strtoul(value(), nullptr, 10);
        }
        else if (flag == "--store-budget")
        {
            const char *const v = value();
            const auto parsed = parseSize(v);
            if (!parsed)
            {
                std::fprintf(stderr, "dynex_serve: bad size '%s'\n", v);
                return 2;
            }
            config.storeBudgetBytes = *parsed;
        }
        else if (flag == "--refs")
        {
            config.refs = std::strtoull(value(), nullptr, 10);
        }
        else if (flag == "--bench")
        {
            const char *const v = value();
            if (!isSpecBenchmark(v))
            {
                std::fprintf(stderr,
                             "dynex_serve: unknown benchmark '%s'\n", v);
                return 2;
            }
            config.traces.push_back({v, "", 0});
            explicitTraces = true;
        }
        else if (flag == "--trace")
        {
            const char *const v = value();
            std::error_code ec;
            const auto size = std::filesystem::file_size(v, ec);
            if (ec)
            {
                std::fprintf(stderr,
                             "dynex_serve: cannot stat '%s': %s\n", v,
                             ec.message().c_str());
                return 2;
            }
            config.traces.push_back({stemOf(v), v, size});
            explicitTraces = true;
        }
        else if (flag == "--metrics-out")
        {
            metricsOut = value();
        }
        else if (flag == "--trace-out")
        {
            traceOut = value();
        }
        else if (flag == "--admission-budget-ms")
        {
            config.admission.costBudgetNs =
                std::strtoull(value(), nullptr, 10) * 1'000'000ull;
        }
        else if (flag == "--client-burst-ms")
        {
            config.admission.clientBurstNs =
                std::strtoull(value(), nullptr, 10) * 1'000'000ull;
        }
        else if (flag == "--chaos-seed")
        {
            config.chaosSeed = std::strtoull(value(), nullptr, 10);
        }
        else if (flag == "--chaos-spec")
        {
            const char *const v = value();
            Result<server::ChaosSpec> spec = server::parseChaosSpec(v);
            if (!spec.ok())
            {
                std::fprintf(stderr, "dynex_serve: %s\n",
                             spec.status().toString().c_str());
                return 2;
            }
            config.chaos = spec.value();
        }
        else if (flag == "--log-level")
        {
            const char *const v = value();
            if (!obs::parseLogLevel(v, logOptions.minLevel))
            {
                std::fprintf(stderr,
                             "dynex_serve: bad log level '%s'\n", v);
                return 2;
            }
            logJson = true;
        }
        else if (flag == "--log-rate")
        {
            logOptions.ratePerSec = static_cast<std::uint32_t>(
                std::strtoul(value(), nullptr, 10));
            logOptions.burst = logOptions.ratePerSec * 2;
        }
        else if (flag == "--slow-request-ms")
        {
            config.slowRequestMs = static_cast<std::uint32_t>(
                std::strtoul(value(), nullptr, 10));
            logJson = true;
        }
        else if (flag == "--test-delay-ms")
        {
            config.testDelayBeforeExecuteMs = static_cast<std::uint32_t>(
                std::strtoul(value(), nullptr, 10));
        }
        else
        {
            std::fprintf(stderr, "dynex_serve: unknown option '%s'\n",
                         flag.c_str());
            return usage(stderr);
        }
    }
    if (!explicitTraces)
        addSuite(config);

    // Lifetime observability: one collector covers every request the
    // server answers; the report is written during drain.
    std::unique_ptr<obs::MetricsCollector> collector;
    std::unique_ptr<obs::Tracer> tracer;
    std::unique_ptr<obs::Logger> logger;
    if (logJson)
    {
        logger = std::make_unique<obs::Logger>(logOptions);
        obs::Logger::setActive(logger.get());
    }
    if (!metricsOut.empty())
    {
        collector = std::make_unique<obs::MetricsCollector>();
        obs::setActiveMetrics(collector.get());
    }
    if (!traceOut.empty())
    {
        tracer = std::make_unique<obs::Tracer>();
        obs::Tracer::setActive(tracer.get());
        obs::setPoolJobSpans(true);
    }

    // Build the process-wide pool here, on the main thread. Built by
    // the first kernel sweep instead, its long-lived allocations land in
    // that connection worker's malloc arena above the sweep's scratch,
    // which then stays resident after it is freed.
    ThreadPool::global();
    server::Server server(config);
    const Status started = server.start();
    if (!started.ok())
    {
        std::fprintf(stderr, "dynex_serve: %s\n",
                     started.toString().c_str());
        return 3;
    }

    const std::string portLine = std::to_string(server.port()) + "\n";
    if (!portFile.empty() &&
        writeOrComplain(portFile, obs::writeTextFile(portFile, portLine)))
    {
        server.stop();
        return 3;
    }

    std::signal(SIGINT, onSignal);
    std::signal(SIGTERM, onSignal);
    if (logger)
        logger->line(obs::LogLevel::Info, "listening")
            .str("version", versionString())
            .u64("port", server.port())
            .u64("workers", config.workers)
            .u64("traces", config.traces.size());
    else
        std::fprintf(stderr,
                     "dynex_serve %s: listening on 127.0.0.1:%u "
                     "(%u workers, %zu traces)\n",
                     versionString(), server.port(), config.workers,
                     config.traces.size());

    while (!gStopRequested.load(std::memory_order_relaxed))
        std::this_thread::sleep_for(std::chrono::milliseconds(100));

    if (logger)
        logger->line(obs::LogLevel::Info, "draining");
    else
        std::fprintf(stderr, "dynex_serve: draining...\n");
    server.stop();

    int rc = 0;
    obs::setPoolJobSpans(false);
    obs::Tracer::setActive(nullptr);
    obs::setActiveMetrics(nullptr);
    if (tracer)
        rc = writeOrComplain(traceOut, tracer->writeJson(traceOut));
    if (collector)
    {
        obs::RunInfo info;
        info.trace = "server";
        info.refs = 0;
        info.lineBytes = 0;
        info.engine = "server";
        info.workers = ThreadPool::global().workers();
        obs::RunReport report =
            obs::RunReport::build(info, *collector, {});
        report.extra = server.statsRows();
        rc = std::max(rc, writeOrComplain(metricsOut,
                                          obs::writeTextFile(
                                              metricsOut, report.toJson())));
    }
    const server::ServerCounters totals = server.counters();
    if (logger)
    {
        logger->line(obs::LogLevel::Info, "served")
            .u64("requests", totals.requests)
            .u64("errors", totals.errors)
            .u64("busy", totals.busy)
            .u64("connections", totals.connections)
            .u64("log-lines-dropped", logger->droppedLines());
        obs::Logger::setActive(nullptr);
    }
    else
    {
        std::fprintf(
            stderr,
            "dynex_serve: served %llu requests "
            "(%llu errors, %llu busy) over %llu connections\n",
            static_cast<unsigned long long>(totals.requests),
            static_cast<unsigned long long>(totals.errors),
            static_cast<unsigned long long>(totals.busy),
            static_cast<unsigned long long>(totals.connections));
    }
    return rc;
}

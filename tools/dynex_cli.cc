/**
 * @file
 * The dynex command-line tool: generate, inspect, convert, and
 * simulate traces from the shell.
 *
 *   dynex list
 *   dynex gen <benchmark> <out.{dxt,din}> [--refs N] [--stream KIND]
 *   dynex info <trace-file>
 *   dynex convert <in> <out> [--to FORMAT] [--force]
 *   dynex import <in> <out> --format {text,lackey}
 *             [--out-format {dxt2,dxt3}] [--refs N] [--force]
 *   dynex campaign run <spec.dxc> [--host H --port P] [--threads N]
 *             [--trace-out F]
 *   dynex campaign check <spec.dxc>
 *   dynex sim <trace-file|benchmark> [--cache KIND] [--size S]
 *             [--line L] [--sticky N] [--lastline] [--victim N]
 *             [--refs N] [--stream KIND]
 *   dynex triad <trace-file|benchmark> [--size S] [--line L] [--refs N]
 *   dynex sweep <trace-file|benchmark> [--line L] [--refs N]
 *             [--threads N] [--replay kernel|per-leg]
 *             [--metrics-out F] [--csv-out F] [--trace-out F]
 *             [--progress]
 *   dynex analyze <trace-file|benchmark> [--size S] [--line L]
 *             [--refs N] [--stream KIND]
 *
 * KIND (cache): dm | dynex | 2way | 4way | 8way | fa | opt
 * KIND (stream): mixed | ifetch | data        (benchmarks only)
 * S, L accept size suffixes: 32KB, 16, 8K, ...
 *
 * Simulation commands that run several models or sizes (triad, sweep)
 * fan out across a thread pool; --threads N (or the DYNEX_THREADS
 * environment variable) sets the worker count. Results are identical
 * at any thread count.
 */

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <memory>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "cache/factory.h"
#include "cache/optimal.h"
#include "cache/victim.h"
#include "server/client.h"
#include "obs/metrics.h"
#include "obs/progress.h"
#include "obs/prom.h"
#include "obs/run_report.h"
#include "obs/trace_events.h"
#include "obs/trace_merge.h"
#include "sim/analysis.h"
#include "sim/sweep.h"
#include "sim/runner.h"
#include "sim/workloads.h"
#include "trace/text_io.h"
#include "trace/trace_io.h"
#include "tracegen/spec.h"
#include "util/string_utils.h"
#include "util/thread_pool.h"
#include "util/table.h"
#include "util/version.h"
#include "workload/campaign.h"
#include "workload/executor.h"
#include "workload/import.h"

namespace
{

using namespace dynex;

/** Parsed command-line options after the positional arguments. */
struct Options
{
    std::string cache = "dm";
    std::uint64_t sizeBytes = 32 * 1024;
    std::uint32_t lineBytes = 16;
    std::uint8_t stickyMax = 1;
    bool lastLine = false;
    std::uint32_t victimEntries = 0;
    Count refs = 0; // 0 = default
    std::string stream = "ifetch";
    unsigned threads = 0; // 0 = DYNEX_THREADS / hardware default
    ReplayEngine replay = ReplayEngine::Kernel;
    std::uint64_t injectFaultSize = 0; // 0 = no injection
    std::string host = "127.0.0.1"; // --host: remote server address
    std::uint16_t port = 0;         // --port: remote server port
    std::uint32_t deadlineMs = 0;   // --deadline-ms: remote deadline
    unsigned retries = 0;           // --retries: remote retry attempts
    std::uint32_t backoffMs = 100;  // --backoff-ms: retry base backoff
    std::string clientId;           // --client-id: hello identity
    std::string metricsOut;  // --metrics-out: JSON run report
    std::string csvOut;      // --csv-out: sweep table as CSV
    std::string traceOut;    // --trace-out: Chrome trace events
    bool progress = false;   // --progress: stderr progress bar
    unsigned watchSec = 0;   // remote-stats --watch: refresh period
    bool prom = false;       // remote-stats --prom: Prometheus text
    std::string format;      // import --format: input format
    std::string outFormat;   // import --out-format: dxt2 | dxt3
    std::string convertTo;   // convert --to: output format override
    bool force = false;      // --force: overwrite existing outputs
};

/** Apply --threads to the simulation pool before any sweep runs. */
void
applyThreads(const Options &options)
{
    if (options.threads > 0)
        ThreadPool::setConfiguredWorkers(options.threads);
}

// Exit codes, mirroring util/status categories (documented in --help):
//   0 success
//   2 usage error (bad command line, unknown benchmark)
//   3 I/O error (unreadable trace, unwritable output, dead server)
//   4 data error (corrupt trace file, implausible sizes)
//   5 internal error (failed sweep legs, library bugs)
constexpr int kExitOk = 0;
constexpr int kExitUsage = 2;
constexpr int kExitIo = 3;
constexpr int kExitData = 4;
constexpr int kExitInternal = 5;

int
exitCodeFor(const Status &status)
{
    switch (status.code()) {
    case StatusCode::Ok:
        return kExitOk;
    case StatusCode::IoError:
        return kExitIo;
    case StatusCode::CorruptInput:
    case StatusCode::ResourceLimit:
    case StatusCode::DeadlineExceeded:
    case StatusCode::Busy:
    case StatusCode::InvalidArgument:
        return kExitData;
    case StatusCode::Internal:
        break;
    }
    return kExitInternal;
}

/** The full usage text: every subcommand, every flag, the exit-code
 * contract. `dynex help` prints it to stdout (exit 0); error paths
 * print it to stderr (exit 2). */
void
printUsage(std::FILE *out)
{
    std::fprintf(
        out,
        "usage: dynex <command> [args]\n"
        "  help | --help | -h                    this text (to stdout)\n"
        "  list                                  suite benchmarks\n"
        "  gen <benchmark> <out.{dxt,din}>       generate a trace file\n"
        "  info <trace-file>                     summarize a trace\n"
        "  convert <in> <out> [--to F] [--force] convert trace formats\n"
        "                                        (dxt1/dxt2/dxt3/din/\n"
        "                                        text/lackey)\n"
        "  import <in> <out> --format F          import an external\n"
        "         [--out-format dxt2|dxt3]       trace (text or lackey\n"
        "         [--refs N] [--force]           layout) into dxt2/dxt3\n"
        "  campaign run <spec.dxc> [options]     run a campaign spec\n"
        "                                        locally, or on a\n"
        "                                        dynex_serve daemon\n"
        "                                        with --host/--port\n"
        "  campaign check <spec.dxc>             parse + validate only\n"
        "  sim <trace|benchmark> [options]       run one cache model\n"
        "  triad <trace|benchmark> [options]     dm vs dynex vs optimal\n"
        "  sweep <trace|benchmark> [options]     triad over the paper's\n"
        "                                        cache-size axis\n"
        "  analyze <trace|benchmark> [options]   conflict structure\n"
        "  remote-ls --port P [--host H]         list a dynex_serve\n"
        "                                        server's traces\n"
        "  remote-sweep <trace> --port P [opts]  run the size sweep on\n"
        "                                        a dynex_serve server\n"
        "  remote-stats --port P [--watch N]     server stats dashboard\n"
        "               [--prom]                  (counters + latency\n"
        "                                        percentiles)\n"
        "  trace-merge <out> <in>...             merge Chrome traces\n"
        "                                        (client + server) into\n"
        "                                        one aligned timeline\n"
        "  prom-check <file>                     strict-parse Prometheus\n"
        "                                        text exposition\n"
        "  version | --version                   print the version\n"
        "options: --cache K --size S --line L --sticky N --lastline\n"
        "         --victim N --refs N --stream mixed|ifetch|data\n"
        "         --format F   import: input format; valid formats:\n"
        "                      text (one '<type> <hex-addr> [size]'\n"
        "                      reference per line, # comments) and\n"
        "                      lackey (dense 10-byte binary records:\n"
        "                      addr u64, kind u8, size u8)\n"
        "         --out-format F  import: on-disk output format (dxt2\n"
        "                      default, dxt3 compressed); without it\n"
        "                      the output extension decides\n"
        "         --to F       convert: output format override (dxt1,\n"
        "                      dxt2, dxt3, din, text, lackey); without\n"
        "                      it the output extension decides\n"
        "         --force      convert/import: overwrite an existing\n"
        "                      output file instead of refusing\n"
        "         --threads N  simulation worker threads for triad,\n"
        "                      sweep and campaign run (default:\n"
        "                      DYNEX_THREADS if set, else all\n"
        "                      hardware threads); any count\n"
        "                      produces identical results\n"
        "         --replay E   sweep replay engine; valid engines:\n"
        "                      kernel (default) streams the trace\n"
        "                      once through the SoA kernel for all\n"
        "                      sizes and models; per-leg replays the\n"
        "                      object models once per leg; both\n"
        "                      produce identical output (batched is\n"
        "                      an alias of kernel)\n"
        "         --inject-fault S  (testing) fail the sweep leg at\n"
        "                      cache size S; other legs still complete\n"
        "                      and the failure is reported\n"
        "         --metrics-out F  sweep: write a JSON run report\n"
        "                      (per-leg stats, FSM event counts,\n"
        "                      timings, failures) to F\n"
        "         --csv-out F  sweep: write the sweep table (one row\n"
        "                      per leg, with FSM event counts) to F\n"
        "         --trace-out F  sweep and campaign run: write\n"
        "                      Chrome trace-event JSON to F; load in\n"
        "                      chrome://tracing or Perfetto\n"
        "         --progress   sweep: draw a progress bar on stderr\n"
        "                      (stdout tables are unaffected)\n"
        "         --host H --port P  remote-* and campaign run: a\n"
        "                      dynex_serve address (default host\n"
        "                      127.0.0.1); campaign run without --port\n"
        "                      executes locally\n"
        "         --deadline-ms N  remote-*: per-request deadline; an\n"
        "                      expired deadline is a data error; with\n"
        "                      --retries it also bounds the total time\n"
        "                      spent retrying\n"
        "         --retries N  remote-*: retry BUSY sheds and dropped\n"
        "                      connections up to N times, with\n"
        "                      exponential backoff + jitter honoring\n"
        "                      the server's retry-after hint\n"
        "         --backoff-ms N  remote-*: base retry backoff\n"
        "                      (default 100)\n"
        "         --client-id S  remote-*: identity sent in the DXP1\n"
        "                      hello for per-client fair admission\n"
        "         --watch N    remote-stats: redraw every N seconds\n"
        "                      until interrupted\n"
        "         --prom       remote-stats: print Prometheus text\n"
        "                      exposition instead of the dashboard\n"
        "                      (pipe to a node-exporter textfile)\n"
        "         --trace-out F  remote-sweep: also record client-side\n"
        "                      rpc spans (trace ids sent on the wire\n"
        "                      match the server's --trace-out spans;\n"
        "                      stitch with trace-merge)\n"
        "exit codes: 0 ok, 2 usage error, 3 i/o error, 4 data error\n"
        "            (corrupt/implausible input), 5 internal error\n"
        "            (failed sweep or campaign legs, library bugs)\n");
}

int
usage()
{
    printUsage(stderr);
    return kExitUsage;
}

bool
looksLikeFile(const std::string &name)
{
    return name.find('.') != std::string::npos ||
           name.find('/') != std::string::npos;
}

/** Print why the trace file at @p path could not be read.
 * @return its exit code (3 for I/O, 4 for corrupt/oversized data). */
int
reportReadFailure(const std::string &path, const Status &status)
{
    std::fprintf(stderr, "dynex: cannot read %s: %s\n", path.c_str(),
                 status.toString().c_str());
    return exitCodeFor(status);
}

/** Load a trace file; on failure print the reason and set
 * @p exit_code. */
std::optional<Trace>
loadTraceFile(const std::string &path, int &exit_code)
{
    Result<Trace> trace = readAnyTraceFile(path);
    if (!trace.ok()) {
        exit_code = reportReadFailure(path, trace.status());
        return std::nullopt;
    }
    return std::move(trace).value();
}

/** @return the exit code of writing @p trace to @p path (0 ok). */
int
storeTraceFile(const Trace &trace, const std::string &path)
{
    const Status status =
        isDinPath(path) ? writeDinTraceFile(trace, path)
        : isDxt3Path(path)
            ? writeTraceFile(trace, path, TraceFormat::Dxt3)
            : writeTraceFile(trace, path);
    if (!status.ok())
        std::fprintf(stderr, "dynex: cannot write %s: %s\n",
                     path.c_str(), status.toString().c_str());
    return exitCodeFor(status);
}

/** Resolve a positional trace argument: a file path or a benchmark.
 * On failure, @p exit_code carries the mapped exit code. */
std::optional<Trace>
resolveTrace(const std::string &arg, const Options &options,
             int &exit_code)
{
    if (looksLikeFile(arg))
        return loadTraceFile(arg, exit_code);
    if (!isSpecBenchmark(arg)) {
        std::fprintf(stderr,
                     "dynex: '%s' is neither a file nor a benchmark\n",
                     arg.c_str());
        exit_code = kExitUsage;
        return std::nullopt;
    }
    const Count refs =
        options.refs ? options.refs : Workloads::defaultRefs();
    if (options.stream == "mixed")
        return Workloads::mixed(arg, refs);
    if (options.stream == "data")
        return Workloads::data(arg, refs);
    return Workloads::instructions(arg, refs);
}

bool
parseOptions(int argc, char **argv, int first, Options &options)
{
    for (int i = first; i < argc; ++i) {
        const std::string flag = argv[i];
        auto value = [&]() -> const char * {
            if (i + 1 >= argc) {
                std::fprintf(stderr, "dynex: %s needs a value\n",
                             flag.c_str());
                return nullptr;
            }
            return argv[++i];
        };
        if (flag == "--lastline") {
            options.lastLine = true;
        } else if (flag == "--force") {
            options.force = true;
        } else if (flag == "--format") {
            const char *v = value();
            if (!v)
                return false;
            if (!iequals(v, "text") && !iequals(v, "lackey")) {
                std::fprintf(stderr,
                             "dynex: bad --format '%s' (valid formats: "
                             "text, lackey)\n",
                             v);
                return false;
            }
            options.format = v;
        } else if (flag == "--out-format") {
            const char *v = value();
            if (!v)
                return false;
            if (!iequals(v, "dxt2") && !iequals(v, "dxt3")) {
                std::fprintf(stderr,
                             "dynex: bad --out-format '%s' (valid "
                             "formats: dxt2, dxt3)\n",
                             v);
                return false;
            }
            options.outFormat = v;
        } else if (flag == "--to") {
            const char *v = value();
            if (!v)
                return false;
            if (!iequals(v, "dxt1") && !iequals(v, "dxt2") &&
                !iequals(v, "dxt3") && !iequals(v, "din") &&
                !iequals(v, "text") && !iequals(v, "lackey")) {
                std::fprintf(stderr,
                             "dynex: bad --to '%s' (valid formats: "
                             "dxt1, dxt2, dxt3, din, text, lackey)\n",
                             v);
                return false;
            }
            options.convertTo = v;
        } else if (flag == "--progress") {
            options.progress = true;
        } else if (flag == "--prom") {
            options.prom = true;
        } else if (flag == "--watch") {
            const char *v = value();
            if (!v)
                return false;
            const auto parsed = std::strtoull(v, nullptr, 10);
            if (parsed == 0) {
                std::fprintf(stderr,
                             "dynex: --watch needs a period >= 1\n");
                return false;
            }
            options.watchSec = static_cast<unsigned>(parsed);
        } else if (flag == "--metrics-out" || flag == "--csv-out" ||
                   flag == "--trace-out") {
            const char *v = value();
            if (!v)
                return false;
            if (flag == "--metrics-out")
                options.metricsOut = v;
            else if (flag == "--csv-out")
                options.csvOut = v;
            else
                options.traceOut = v;
        } else if (flag == "--cache") {
            const char *v = value();
            if (!v)
                return false;
            options.cache = v;
        } else if (flag == "--replay") {
            const char *v = value();
            if (!v)
                return false;
            const std::optional<ReplayEngine> engine =
                parseReplayEngine(v);
            if (!engine) {
                std::fprintf(stderr,
                             "dynex: bad --replay '%s' (valid engines: "
                             "kernel, per-leg)\n",
                             v);
                return false;
            }
            options.replay = *engine;
        } else if (flag == "--stream") {
            const char *v = value();
            if (!v)
                return false;
            options.stream = v;
            if (options.stream != "mixed" && options.stream != "ifetch" &&
                options.stream != "data") {
                std::fprintf(stderr, "dynex: bad --stream '%s'\n", v);
                return false;
            }
        } else if (flag == "--size" || flag == "--line" ||
                   flag == "--inject-fault") {
            const char *v = value();
            if (!v)
                return false;
            const auto parsed = parseSize(v);
            if (!parsed) {
                std::fprintf(stderr, "dynex: bad size '%s'\n", v);
                return false;
            }
            if (flag == "--size")
                options.sizeBytes = *parsed;
            else if (flag == "--inject-fault")
                options.injectFaultSize = *parsed;
            else
                options.lineBytes =
                    static_cast<std::uint32_t>(*parsed);
        } else if (flag == "--host") {
            const char *v = value();
            if (!v)
                return false;
            options.host = v;
        } else if (flag == "--client-id") {
            const char *v = value();
            if (!v)
                return false;
            options.clientId = v;
        } else if (flag == "--port" || flag == "--deadline-ms" ||
                   flag == "--retries" || flag == "--backoff-ms") {
            const char *v = value();
            if (!v)
                return false;
            const auto parsed = std::strtoull(v, nullptr, 10);
            if (flag == "--port") {
                if (parsed == 0 || parsed > 65535) {
                    std::fprintf(stderr, "dynex: bad --port '%s'\n", v);
                    return false;
                }
                options.port = static_cast<std::uint16_t>(parsed);
            } else if (flag == "--deadline-ms") {
                options.deadlineMs = static_cast<std::uint32_t>(parsed);
            } else if (flag == "--retries") {
                options.retries = static_cast<unsigned>(parsed);
            } else {
                options.backoffMs = static_cast<std::uint32_t>(parsed);
            }
        } else if (flag == "--sticky" || flag == "--victim" ||
                   flag == "--refs" || flag == "--threads") {
            const char *v = value();
            if (!v)
                return false;
            const auto parsed = std::strtoull(v, nullptr, 10);
            if (flag == "--threads" && parsed == 0) {
                std::fprintf(stderr,
                             "dynex: --threads needs a count >= 1\n");
                return false;
            }
            if (flag == "--sticky")
                options.stickyMax = static_cast<std::uint8_t>(parsed);
            else if (flag == "--victim")
                options.victimEntries =
                    static_cast<std::uint32_t>(parsed);
            else if (flag == "--threads")
                options.threads = static_cast<unsigned>(parsed);
            else
                options.refs = parsed;
        } else {
            // Show the full usage text so the correct spelling (and
            // the newer flags) are one error away, not a docs hunt.
            std::fprintf(stderr, "dynex: unknown option '%s'\n",
                         flag.c_str());
            usage();
            return false;
        }
    }
    return true;
}

int
cmdList()
{
    Table table;
    table.setHeader({"benchmark", "description"});
    for (const auto &info : specSuite())
        table.addRow({info.name, info.description});
    std::printf("%s", table.toText().c_str());
    return 0;
}

int
cmdGen(const std::string &benchmark, const std::string &out_path,
       const Options &options)
{
    if (!isSpecBenchmark(benchmark)) {
        std::fprintf(stderr, "dynex: unknown benchmark '%s'\n",
                     benchmark.c_str());
        return kExitUsage;
    }
    int rc = kExitInternal;
    const auto trace = resolveTrace(benchmark, options, rc);
    if (!trace)
        return rc;
    rc = storeTraceFile(*trace, out_path);
    if (rc != kExitOk)
        return rc;
    std::printf("wrote %zu references to %s\n", trace->size(),
                out_path.c_str());
    return kExitOk;
}

int
cmdInfo(const std::string &path)
{
    int rc = kExitInternal;
    const auto trace = loadTraceFile(path, rc);
    if (!trace)
        return rc;
    const TraceSummary summary = trace->summarize();
    std::printf("name:    %s\n", trace->name().c_str());
    std::printf("refs:    %s\n", summary.toString().c_str());
    std::printf("range:   [0x%llx, 0x%llx]\n",
                static_cast<unsigned long long>(summary.minAddr),
                static_cast<unsigned long long>(summary.maxAddr));
    return 0;
}

/** Overwrite guard for convert/import outputs: refuse to clobber an
 * existing file unless --force was given. */
bool
outputWritable(const std::string &path, const Options &options,
               int &exit_code)
{
    if (options.force)
        return true;
    std::FILE *file = std::fopen(path.c_str(), "rb");
    if (!file)
        return true;
    std::fclose(file);
    std::fprintf(stderr,
                 "dynex: %s exists; pass --force to overwrite\n",
                 path.c_str());
    exit_code = kExitIo;
    return false;
}

/** Write @p trace to @p path in format @p to ("dxt1", "dxt2", "dxt3",
 * "din", "text", "lackey"); empty @p to lets the extension decide. */
int
writeTraceAs(const Trace &trace, const std::string &path,
             const std::string &to)
{
    if (to.empty())
        return storeTraceFile(trace, path);
    Status status;
    if (iequals(to, "dxt1"))
        status = writeTraceFile(trace, path, TraceFormat::Dxt1);
    else if (iequals(to, "dxt2"))
        status = writeTraceFile(trace, path, TraceFormat::Dxt2);
    else if (iequals(to, "dxt3"))
        status = writeTraceFile(trace, path, TraceFormat::Dxt3);
    else if (iequals(to, "din"))
        status = writeDinTraceFile(trace, path);
    else if (iequals(to, "text"))
        status = workload::writeTextTraceFile(trace, path);
    else
        status = workload::writeLackeyTraceFile(trace, path);
    if (!status.ok())
        std::fprintf(stderr, "dynex: cannot write %s: %s\n",
                     path.c_str(), status.toString().c_str());
    return exitCodeFor(status);
}

int
cmdConvert(const std::string &in_path, const std::string &out_path,
           const Options &options)
{
    int rc = kExitOk;
    if (!outputWritable(out_path, options, rc))
        return rc;
    rc = kExitInternal;
    const auto trace = loadTraceFile(in_path, rc);
    if (!trace)
        return rc;
    rc = writeTraceAs(*trace, out_path, options.convertTo);
    if (rc != kExitOk)
        return rc;
    std::printf("converted %zu references: %s -> %s\n", trace->size(),
                in_path.c_str(), out_path.c_str());
    return kExitOk;
}

int
cmdImport(const std::string &in_path, const std::string &out_path,
          const Options &options)
{
    if (options.format.empty()) {
        std::fprintf(stderr,
                     "dynex: import needs --format text|lackey\n");
        return kExitUsage;
    }
    int rc = kExitOk;
    if (!outputWritable(out_path, options, rc))
        return rc;

    workload::ImportOptions limits;
    if (options.refs > 0)
        limits.maxRefs = options.refs;
    Result<Trace> trace =
        iequals(options.format, "lackey")
            ? workload::readLackeyTraceFile(in_path, {}, limits)
            : workload::readTextTraceFile(in_path, {}, limits);
    if (!trace.ok()) {
        std::fprintf(stderr, "dynex: cannot import %s: %s\n",
                     in_path.c_str(),
                     trace.status().toString().c_str());
        return exitCodeFor(trace.status());
    }

    rc = writeTraceAs(trace.value(), out_path, options.outFormat);
    if (rc != kExitOk)
        return rc;
    std::printf("imported %zu references (%s): %s -> %s\n",
                trace.value().size(), options.format.c_str(),
                in_path.c_str(), out_path.c_str());
    return kExitOk;
}

/** The summary table `campaign run` prints: one row per leg, with a
 * miss column per model the spec requests. */
void
printCampaignTable(const workload::CampaignSpec &spec,
                   const workload::CampaignReport &report)
{
    std::vector<std::string> header = {"trace", "line", "size"};
    for (const std::string &model : spec.models)
        header.push_back(model + " miss %");
    Table table;
    table.setHeader(header);
    for (const auto &leg : report.legs) {
        std::vector<std::string> row = {leg.trace,
                                        formatSize(leg.lineBytes),
                                        formatSize(leg.sizeBytes)};
        for (const std::string &model : spec.models) {
            if (!leg.ok) {
                row.push_back("-");
                continue;
            }
            const double pct = model == "dm"      ? leg.dmMissPct
                               : model == "dynex" ? leg.deMissPct
                                                  : leg.optMissPct;
            row.push_back(Table::fmt(pct, 3));
        }
        table.addRow(row);
    }
    std::printf("%s", table.toText().c_str());
}

int
cmdCampaign(const std::string &verb, const std::string &spec_path,
            const Options &options)
{
    Result<workload::CampaignSpec> parsed =
        workload::parseCampaignFile(spec_path);
    if (!parsed.ok()) {
        std::fprintf(stderr, "dynex: %s\n",
                     parsed.status().toString().c_str());
        return exitCodeFor(parsed.status());
    }
    const workload::CampaignSpec &spec = parsed.value();

    // A campaign writes the report sinks its spec names, so these
    // sweep flags would be accepted and ignored; `check` runs nothing
    // to trace.
    const char *ignored =
        !options.metricsOut.empty() ? "--metrics-out"
        : !options.csvOut.empty()   ? "--csv-out"
        : options.progress          ? "--progress"
        : verb == "check" && !options.traceOut.empty() ? "--trace-out"
                                                       : nullptr;
    if (ignored) {
        std::fprintf(stderr, "dynex: campaign %s does not take %s\n",
                     verb.c_str(), ignored);
        return kExitUsage;
    }

    if (verb == "check") {
        std::printf("campaign: %s\n", spec.name.c_str());
        std::printf("engine:   %s (sticky %u)\n",
                    replayEngineName(spec.engine),
                    static_cast<unsigned>(spec.stickyMax));
        Table traces;
        traces.setHeader({"trace", "kind", "source"});
        for (const auto &source : spec.traces) {
            const std::string kind =
                source.kind == workload::SourceKind::Bench ? "bench"
                : source.kind == workload::SourceKind::File
                    ? "file"
                    : "import " + source.format;
            traces.addRow({source.label, kind, source.spec});
        }
        std::printf("%s", traces.toText().c_str());
        std::string sizes;
        for (const std::uint64_t size : spec.sizes)
            sizes += (sizes.empty() ? "" : ", ") + formatSize(size);
        std::string lines;
        for (const std::uint32_t line : spec.lines)
            lines += (lines.empty() ? "" : ", ") + formatSize(line);
        std::printf("sizes:    %s\n", sizes.c_str());
        std::printf("lines:    %s\n", lines.c_str());
        std::printf("legs:     %zu\n", spec.traces.size() *
                                           spec.lines.size() *
                                           spec.sizes.size());
        std::printf("%s: valid campaign spec\n", spec_path.c_str());
        return kExitOk;
    }

    applyThreads(options);
    workload::CampaignOptions run;
    run.host = options.host;
    run.port = options.port;
    run.deadlineMs = options.deadlineMs;
    run.retries = options.retries;
    run.backoffMs = options.backoffMs;
    if (!options.clientId.empty())
        run.clientId = options.clientId;

    // --trace-out: a `source` span per source job (with its `load`
    // child) above the sweep spans, so overlapping sources show.
    std::unique_ptr<obs::Tracer> tracer;
    if (!options.traceOut.empty()) {
        tracer = std::make_unique<obs::Tracer>();
        obs::Tracer::setActive(tracer.get());
        obs::setPoolJobSpans(true);
    }
    const Result<workload::CampaignReport> ran =
        workload::runCampaign(spec, run);
    int rc = kExitOk;
    if (tracer) {
        obs::setPoolJobSpans(false);
        obs::Tracer::setActive(nullptr);
        if (const Status wrote = tracer->writeJson(options.traceOut);
            !wrote.ok()) {
            std::fprintf(stderr, "dynex: cannot write %s: %s\n",
                         options.traceOut.c_str(),
                         wrote.toString().c_str());
            rc = exitCodeFor(wrote);
        }
    }
    if (!ran.ok()) {
        std::fprintf(stderr, "dynex: %s\n",
                     ran.status().toString().c_str());
        return exitCodeFor(ran.status());
    }
    const workload::CampaignReport &report = ran.value();

    const Status wrote = workload::writeCampaignOutputs(report, spec);
    if (!wrote.ok()) {
        std::fprintf(stderr, "dynex: %s\n", wrote.toString().c_str());
        rc = std::max(rc, exitCodeFor(wrote));
    }

    std::printf("campaign %s: %zu leg(s), engine %s%s\n\n",
                report.name.c_str(), report.legs.size(),
                report.engine.c_str(),
                options.port ? " (remote)" : "");
    printCampaignTable(spec, report);
    if (!spec.jsonOut.empty())
        std::printf("\nwrote %s\n", spec.jsonOut.c_str());
    if (!spec.csvOut.empty())
        std::printf("wrote %s\n", spec.csvOut.c_str());

    if (!report.allOk()) {
        Table failed;
        failed.setHeader({"failed leg", "status"});
        for (const auto &failure : report.failures)
            failed.addRow({failure.trace + " @ " +
                               formatSize(failure.sizeBytes),
                           failure.status});
        std::printf("\n%zu leg(s) failed; results above are "
                    "partial\n\n%s",
                    report.failures.size(), failed.toText().c_str());
        return kExitInternal;
    }
    return rc;
}

int
cmdSim(const std::string &target, const Options &options)
{
    int rc = kExitInternal;
    const auto trace = resolveTrace(target, options, rc);
    if (!trace)
        return rc;

    const auto geometry =
        CacheGeometry::directMapped(options.sizeBytes, options.lineBytes);

    std::unique_ptr<CacheModel> cache;
    std::unique_ptr<NextUseIndex> index;
    if (iequals(options.cache, "opt")) {
        index = std::make_unique<NextUseIndex>(*trace, options.lineBytes,
                                               NextUseMode::RunStart);
        cache = std::make_unique<OptimalDirectMappedCache>(geometry,
                                                           *index, true);
    } else if (options.victimEntries > 0 &&
               iequals(options.cache, "dm")) {
        cache = std::make_unique<VictimCache>(geometry,
                                              options.victimEntries);
    } else {
        DynamicExclusionConfig config;
        config.stickyMax = options.stickyMax;
        config.useLastLine = options.lastLine;
        cache = makeCache(options.cache, geometry, config);
    }

    const CacheStats stats = runTrace(*cache, *trace);
    std::printf("trace:   %s (%zu refs)\n", trace->name().c_str(),
                trace->size());
    std::printf("cache:   %s %s\n", cache->name().c_str(),
                cache->geometry().toString().c_str());
    std::printf("result:  %s\n", stats.toString().c_str());
    return 0;
}

int
cmdTriad(const std::string &target, const Options &options)
{
    applyThreads(options);
    int rc = kExitInternal;
    const auto trace = resolveTrace(target, options, rc);
    if (!trace)
        return rc;

    const NextUseIndex index(*trace, options.lineBytes,
                             NextUseMode::RunStart);
    DynamicExclusionConfig config;
    config.stickyMax = options.stickyMax;
    config.useLastLine = options.lineBytes > 4;
    const TriadResult triad = runTriad(
        *trace, index, options.sizeBytes, options.lineBytes, config);

    Table table;
    table.setHeader({"model", "miss %", "misses", "bypasses"});
    table.addRow({"direct-mapped", Table::fmt(triad.dmMissPct(), 3),
                  std::to_string(triad.dm.misses),
                  std::to_string(triad.dm.bypasses)});
    table.addRow({"dynamic-exclusion", Table::fmt(triad.deMissPct(), 3),
                  std::to_string(triad.de.misses),
                  std::to_string(triad.de.bypasses)});
    table.addRow({"optimal", Table::fmt(triad.optMissPct(), 3),
                  std::to_string(triad.opt.misses),
                  std::to_string(triad.opt.bypasses)});
    std::printf("trace: %s (%zu refs), cache %s/%s direct-mapped\n\n",
                trace->name().c_str(), trace->size(),
                formatSize(options.sizeBytes).c_str(),
                formatSize(options.lineBytes).c_str());
    std::printf("%s\n", table.toText().c_str());
    std::printf("dynamic exclusion reduction: %.1f%% (optimal: %.1f%%)\n",
                triad.deImprovementPct(), triad.optImprovementPct());
    return 0;
}

/** Install the requested obs sinks for cmdSweep's run and write their
 * outputs when it ends. Everything is scoped to the sweep call: the
 * sinks go in before the trace is acquired, so its load is charged,
 * and the global obs pointers are cleared before any file is
 * written. */
class SweepObservation
{
  public:
    explicit SweepObservation(const Options &options) : opts(options)
    {
        if (!opts.metricsOut.empty() || !opts.csvOut.empty()) {
            collector = std::make_unique<obs::MetricsCollector>();
            obs::setActiveMetrics(collector.get());
        }
        if (!opts.traceOut.empty()) {
            tracer = std::make_unique<obs::Tracer>();
            obs::Tracer::setActive(tracer.get());
            obs::setPoolJobSpans(true);
        }
    }

    /** Register the legs of the acquired trace @p trace_name and start
     * the progress bar over its @p refs references; call before the
     * replay. */
    void
    begin(const std::string &trace_name, std::uint64_t refs)
    {
        traceName = trace_name;
        if (collector) {
            // Serial registration in size order: this fixes the leg
            // order every report emits, independent of scheduling.
            for (const std::uint64_t size : paperCacheSizes())
                collector->addLeg(traceName, size);
        }
        if (opts.progress) {
            // Work units are references replayed: the kernel streams
            // the trace once for all legs, the per-leg engine once per
            // leg.
            const std::uint64_t total =
                refs * (opts.replay == ReplayEngine::PerLeg
                            ? paperCacheSizes().size()
                            : 1);
            bar = std::make_unique<obs::ProgressBar>(traceName, total);
            obs::ProgressBar::setActive(bar.get());
        }
    }

    ~SweepObservation()
    {
        obs::ProgressBar::setActive(nullptr);
        obs::setPoolJobSpans(false);
        obs::Tracer::setActive(nullptr);
        obs::setActiveMetrics(nullptr);
    }

    SweepObservation(const SweepObservation &) = delete;
    SweepObservation &operator=(const SweepObservation &) = delete;

    /** Uninstall the sinks and write the requested files.
     * @return 0, or the I/O exit code when a file could not be
     * written. */
    int
    finish(const SizeSweepOutcome &outcome, Count refs)
    {
        obs::ProgressBar::setActive(nullptr);
        obs::setPoolJobSpans(false);
        obs::Tracer::setActive(nullptr);
        obs::setActiveMetrics(nullptr);
        if (bar)
            bar->finish();

        int rc = kExitOk;
        if (tracer)
            rc = std::max(rc,
                          writeOrComplain(opts.traceOut,
                                          tracer->writeJson(opts.traceOut)));
        if (!collector)
            return rc;

        obs::RunInfo info;
        info.trace = traceName;
        info.refs = refs;
        info.lineBytes = opts.lineBytes;
        info.engine = replayEngineName(opts.replay);
        info.workers = ThreadPool::global().workers();
        std::vector<obs::ReportFailure> failures;
        for (const auto &failure : outcome.failures)
            failures.push_back({failure.bench, failure.sizeBytes,
                                failure.model,
                                failure.status.toString()});
        const obs::RunReport report = obs::RunReport::build(
            info, *collector, std::move(failures));
        if (!opts.metricsOut.empty())
            rc = std::max(
                rc, writeOrComplain(opts.metricsOut,
                                    obs::writeTextFile(opts.metricsOut,
                                                       report.toJson())));
        if (!opts.csvOut.empty())
            rc = std::max(
                rc, writeOrComplain(opts.csvOut,
                                    obs::writeTextFile(opts.csvOut,
                                                       report.toCsv())));
        return rc;
    }

  private:
    static int
    writeOrComplain(const std::string &path, const Status &status)
    {
        if (status.ok())
            return kExitOk;
        std::fprintf(stderr, "dynex: cannot write %s: %s\n",
                     path.c_str(), status.toString().c_str());
        return exitCodeFor(status);
    }

    const Options &opts;
    std::string traceName;
    std::unique_ptr<obs::MetricsCollector> collector;
    std::unique_ptr<obs::Tracer> tracer;
    std::unique_ptr<obs::ProgressBar> bar;
};

/**
 * Print a size sweep's miss table, then its failed legs if any. Local
 * and remote sweeps share it, so their tables are byte-identical.
 * @return kExitOk, or the worst exit code among the failed legs.
 */
int
printSweepTable(const SizeSweepOutcome &outcome)
{
    Table table;
    table.setHeader({"size", "dm miss %", "dynex miss %", "opt miss %",
                     "dynex gain %"});
    for (std::size_t s = 0; s < outcome.points.size(); ++s) {
        const auto &point = outcome.points[s];
        if (!outcome.ok[s]) {
            table.addRow({formatSize(point.sizeBytes), "-", "-", "-",
                          "-"});
            continue;
        }
        table.addRow({formatSize(point.sizeBytes),
                      Table::fmt(point.dmMissPct, 3),
                      Table::fmt(point.deMissPct, 3),
                      Table::fmt(point.optMissPct, 3),
                      Table::fmt(point.deImprovementPct(), 1)});
    }
    std::printf("%s", table.toText().c_str());
    if (outcome.allOk())
        return kExitOk;

    Table failed;
    failed.setHeader({"failed leg", "status"});
    int worst = kExitOk;
    for (const auto &failure : outcome.failures) {
        failed.addRow({failure.bench + " @ " +
                           formatSize(failure.sizeBytes),
                       failure.status.toString()});
        worst = std::max(worst, exitCodeFor(failure.status));
    }
    std::printf("\n%zu of %zu legs failed; results above are "
                "partial\n\n%s",
                outcome.failures.size(), outcome.points.size(),
                failed.toText().c_str());
    return worst;
}

/** resolveTrace, charged as trace acquisition: TraceLoadNs,
 * TraceLoadRefs and a "load" span. */
std::optional<Trace>
acquireTrace(const std::string &target, const Options &options,
             int &exit_code)
{
    obs::MetricsCollector *const metrics = obs::activeMetrics();
    obs::Tracer *const tracer = obs::Tracer::active();
    const std::uint64_t metrics_t0 = metrics ? obs::monotonicNs() : 0;
    const std::uint64_t tracer_t0 = tracer ? tracer->nowNs() : 0;
    std::optional<Trace> trace = resolveTrace(target, options, exit_code);
    if (!trace)
        return trace;
    if (metrics) {
        metrics->add(obs::Counter::TraceLoadNs,
                     obs::monotonicNs() - metrics_t0);
        metrics->add(obs::Counter::TraceLoadRefs, trace->size());
    }
    if (tracer)
        tracer->complete("load " + trace->name(), "load", tracer_t0,
                         tracer->nowNs() - tracer_t0);
    return trace;
}

int
cmdSweep(const std::string &target, const Options &options)
{
    applyThreads(options);
    if (options.injectFaultSize > 0) {
        const std::uint64_t fault_size = options.injectFaultSize;
        setSweepFaultHook([fault_size](const std::string &,
                                       std::uint64_t size_bytes) {
            if (size_bytes == fault_size)
                throw StatusError(Status::internal("injected fault"));
        });
    }

    DynamicExclusionConfig config;
    config.stickyMax = options.stickyMax;
    config.useLastLine = options.lineBytes > 4;
    SweepObservation observation(options);

    // A kernel sweep of a binary trace file never builds the Trace:
    // the decoder's blocks are packed straight into the artifact, and
    // a bad file fails with the decoder's Status. Every other sweep (the
    // per-leg engine, a benchmark name, a din file) reads a Trace.
    obs::Tracer *const tracer = obs::Tracer::active();
    const std::uint64_t sweep_t0 = tracer ? tracer->nowNs() : 0;
    std::string name;
    std::size_t refs = 0;
    SizeSweepOutcome outcome;
    if (options.replay == ReplayEngine::Kernel && looksLikeFile(target) &&
        !isDinPath(target)) {
        const auto built = buildReplayArtifact(target, options.lineBytes);
        if (!built.ok())
            return reportReadFailure(target, built.status());
        const ReplayArtifact &artifact = **built;
        name = artifact.name();
        refs = artifact.refs();
        observation.begin(name, refs);
        outcome = sweepSizes(artifact, paperCacheSizes(), config,
                             options.replay);
        if (tracer)
            tracer->complete("sweep " + name, "sweep", sweep_t0,
                             tracer->nowNs() - sweep_t0);
    } else {
        int rc = kExitInternal;
        const auto trace = acquireTrace(target, options, rc);
        if (!trace)
            return rc;
        name = trace->name();
        refs = trace->size();
        observation.begin(name, refs);
        outcome = sweepSizes(*trace, paperCacheSizes(), options.lineBytes,
                             config, options.replay);
    }
    const int obs_rc = observation.finish(outcome, refs);

    std::printf("trace: %s (%zu refs), %s lines, %u worker thread(s)\n\n",
                name.c_str(), refs, formatSize(options.lineBytes).c_str(),
                ThreadPool::global().workers());
    const int worst = printSweepTable(outcome);
    return outcome.allOk() ? obs_rc : worst;
}

int
cmdAnalyze(const std::string &target, const Options &options)
{
    int rc = kExitInternal;
    const auto trace = resolveTrace(target, options, rc);
    if (!trace)
        return rc;

    const auto geometry =
        CacheGeometry::directMapped(options.sizeBytes, options.lineBytes);
    const ConflictCensus census = conflictCensus(*trace, geometry);
    const Log2Histogram reuse =
        reuseDistanceHistogram(*trace, options.lineBytes);

    std::printf("trace:   %s (%zu refs)\n", trace->name().c_str(),
                trace->size());
    std::printf("cache:   %s\n", geometry.toString().c_str());
    std::printf("census:  %s\n", census.toString().c_str());
    std::printf("         two-way sets are dynamic exclusion's "
                "headroom; multi-way rotations defeat one sticky "
                "bit\n");
    std::printf("reuse-distance histogram (intervening line refs):\n%s",
                reuse.toString().c_str());
    std::printf("median reuse distance <= %llu lines (cache holds "
                "%llu)\n",
                static_cast<unsigned long long>(
                    reuse.quantileUpperBound(0.5)),
                static_cast<unsigned long long>(geometry.numLines()));
    return 0;
}

/** Connect to the dynex_serve instance named by --host/--port. */
std::optional<server::Client>
connectRemote(const Options &options, int &exit_code)
{
    if (options.port == 0) {
        std::fprintf(stderr,
                     "dynex: remote commands need --port (see "
                     "dynex_serve --port-file)\n");
        exit_code = kExitUsage;
        return std::nullopt;
    }
    server::Client client;
    if (!options.clientId.empty())
        client.setClientId(options.clientId);
    if (options.retries > 0) {
        server::RetryPolicy retry;
        retry.retries = options.retries;
        retry.backoffMs = options.backoffMs;
        retry.budgetMs = options.deadlineMs;
        client.setRetryPolicy(retry);
    }
    const Status status = client.connect(options.host, options.port);
    if (!status.ok()) {
        std::fprintf(stderr, "dynex: %s\n", status.toString().c_str());
        exit_code = exitCodeFor(status);
        return std::nullopt;
    }
    return client;
}

int
cmdRemoteLs(const Options &options)
{
    int rc = kExitInternal;
    auto client = connectRemote(options, rc);
    if (!client)
        return rc;

    const Result<server::PingInfo> info = client->ping();
    if (!info.ok()) {
        std::fprintf(stderr, "dynex: ping failed: %s\n",
                     info.status().toString().c_str());
        return exitCodeFor(info.status());
    }
    const auto traces = client->list();
    if (!traces.ok()) {
        std::fprintf(stderr, "dynex: list failed: %s\n",
                     traces.status().toString().c_str());
        return exitCodeFor(traces.status());
    }

    std::printf("server %s at %s:%u, %llu trace(s)\n\n",
                info.value().version.c_str(), options.host.c_str(),
                options.port,
                static_cast<unsigned long long>(info.value().traces));
    Table table;
    table.setHeader({"trace", "source", "resident"});
    for (const auto &entry : traces.value())
        table.addRow({entry.name,
                      entry.fileBytes ? formatSize(entry.fileBytes)
                                      : "synthetic",
                      entry.resident ? "yes" : "no"});
    std::printf("%s", table.toText().c_str());
    return kExitOk;
}

int
cmdRemoteSweep(const std::string &target, const Options &options)
{
    int rc = kExitInternal;
    auto client = connectRemote(options, rc);
    if (!client)
        return rc;

    // --trace-out: record client-side rpc spans and send trace ids on
    // the wire, so the server's own --trace-out spans carry matching
    // ids and `dynex trace-merge` can stitch the two timelines.
    std::unique_ptr<obs::Tracer> tracer;
    if (!options.traceOut.empty()) {
        tracer = std::make_unique<obs::Tracer>();
        obs::Tracer::setActive(tracer.get());
        client->setTracing(true);
    }

    server::SweepRequest request;
    request.trace = target;
    request.lineBytes = options.lineBytes;
    request.engine = static_cast<std::uint8_t>(options.replay);
    request.stickyMax = options.stickyMax;
    request.deadlineMs = options.deadlineMs;
    const Result<server::SweepResult> swept = client->sweep(request);
    int traceRc = kExitOk;
    if (tracer) {
        obs::Tracer::setActive(nullptr);
        const Status wrote = tracer->writeJson(options.traceOut);
        if (!wrote.ok()) {
            std::fprintf(stderr, "dynex: cannot write %s: %s\n",
                         options.traceOut.c_str(),
                         wrote.toString().c_str());
            traceRc = exitCodeFor(wrote);
        }
    }
    if (!swept.ok()) {
        std::fprintf(stderr, "dynex: remote sweep failed: %s\n",
                     swept.status().toString().c_str());
        return exitCodeFor(swept.status());
    }
    const server::SweepResult &result = swept.value();

    // Miss rates travel bit-exactly, so the rendered rows are
    // byte-identical to a local sweep of the same trace.
    const SizeSweepOutcome &outcome = result.outcome;
    std::printf("trace: %s (%llu refs), %s lines, served by %s:%u\n\n",
                result.trace.c_str(),
                static_cast<unsigned long long>(result.refs),
                formatSize(options.lineBytes).c_str(),
                options.host.c_str(), options.port);
    const int worst = printSweepTable(outcome);
    return outcome.allOk() ? traceRc : std::max(worst, traceRc);
}

/** One parsed latency series out of a STATS response: the percentile
 * rows the server pre-computes from its merged histogram. */
struct LatencyRow
{
    std::string series;
    std::uint64_t count = 0;
    std::uint64_t p50Us = 0;
    std::uint64_t p95Us = 0;
    std::uint64_t p99Us = 0;
    std::uint64_t maxUs = 0;
};

/** Split STATS rows into scalar counters and latency series (the
 * lat-*-{count,p50-us,...} convention; -le- bucket rows and -sum-us
 * feed Prometheus, not the dashboard). */
void
splitStatsRows(const obs::StatsRows &rows, obs::StatsRows &scalars,
               std::vector<LatencyRow> &latencies)
{
    auto seriesOf = [&](const std::string &name,
                        const char *suffix) -> LatencyRow * {
        const std::size_t tail = std::strlen(suffix);
        if (name.size() <= 4 + tail || name.compare(0, 4, "lat-") != 0 ||
            name.compare(name.size() - tail, tail, suffix) != 0)
            return nullptr;
        const std::string series =
            name.substr(4, name.size() - 4 - tail);
        for (LatencyRow &row : latencies)
            if (row.series == series)
                return &row;
        latencies.push_back({series, 0, 0, 0, 0, 0});
        return &latencies.back();
    };
    for (const auto &[name, value] : rows) {
        if (LatencyRow *row = seriesOf(name, "-count"))
            row->count = value;
        else if (LatencyRow *row = seriesOf(name, "-p50-us"))
            row->p50Us = value;
        else if (LatencyRow *row = seriesOf(name, "-p95-us"))
            row->p95Us = value;
        else if (LatencyRow *row = seriesOf(name, "-p99-us"))
            row->p99Us = value;
        else if (LatencyRow *row = seriesOf(name, "-max-us"))
            row->maxUs = value;
        else if (name.compare(0, 4, "lat-") != 0)
            scalars.emplace_back(name, value);
    }
}

int
cmdRemoteStats(const Options &options)
{
    int rc = kExitInternal;
    auto client = connectRemote(options, rc);
    if (!client)
        return rc;

    for (;;) {
        const Result<server::StatsResult> stats = client->stats();
        if (!stats.ok()) {
            std::fprintf(stderr, "dynex: stats failed: %s\n",
                         stats.status().toString().c_str());
            return exitCodeFor(stats.status());
        }

        if (options.prom) {
            std::printf("%s", obs::renderProm(stats.value().counters)
                                  .c_str());
        } else {
            if (options.watchSec > 0)
                std::printf("\x1b[H\x1b[2J"); // home + clear
            obs::StatsRows scalars;
            std::vector<LatencyRow> latencies;
            splitStatsRows(stats.value().counters, scalars, latencies);

            std::printf("dynex_serve %s:%u\n\n", options.host.c_str(),
                        options.port);
            Table counters;
            counters.setHeader({"counter", "value"});
            for (const auto &[name, value] : scalars)
                counters.addRow({name, std::to_string(value)});
            std::printf("%s", counters.toText().c_str());
            if (!latencies.empty()) {
                Table lat;
                lat.setHeader({"latency", "count", "p50 us", "p95 us",
                               "p99 us", "max us"});
                for (const LatencyRow &row : latencies)
                    lat.addRow({row.series, std::to_string(row.count),
                                std::to_string(row.p50Us),
                                std::to_string(row.p95Us),
                                std::to_string(row.p99Us),
                                std::to_string(row.maxUs)});
                std::printf("\n%s", lat.toText().c_str());
            }
        }
        if (options.watchSec == 0)
            return kExitOk;
        std::fflush(stdout);
        std::this_thread::sleep_for(
            std::chrono::seconds(options.watchSec));
    }
}

/** Read a whole file; nullopt (with a complaint) on failure. */
std::optional<std::string>
readWholeFile(const std::string &path)
{
    std::FILE *file = std::fopen(path.c_str(), "rb");
    if (!file) {
        std::fprintf(stderr, "dynex: cannot read %s\n", path.c_str());
        return std::nullopt;
    }
    std::string text;
    char buffer[1 << 16];
    std::size_t got;
    while ((got = std::fread(buffer, 1, sizeof(buffer), file)) > 0)
        text.append(buffer, got);
    const bool failed = std::ferror(file) != 0;
    std::fclose(file);
    if (failed) {
        std::fprintf(stderr, "dynex: cannot read %s\n", path.c_str());
        return std::nullopt;
    }
    return text;
}

int
cmdTraceMerge(const std::string &out_path,
              const std::vector<std::string> &in_paths)
{
    std::vector<obs::MergeInput> inputs;
    for (const std::string &path : in_paths) {
        const auto text = readWholeFile(path);
        if (!text)
            return kExitIo;
        Result<std::vector<obs::MergeEvent>> events =
            obs::parseChromeTrace(*text);
        if (!events.ok()) {
            std::fprintf(stderr, "dynex: %s: %s\n", path.c_str(),
                         events.status().toString().c_str());
            return exitCodeFor(events.status());
        }
        inputs.push_back({path, std::move(events).value()});
    }
    const std::string merged = obs::mergeChromeTraces(inputs);
    const Status wrote = obs::writeTextFile(out_path, merged);
    if (!wrote.ok()) {
        std::fprintf(stderr, "dynex: cannot write %s: %s\n",
                     out_path.c_str(), wrote.toString().c_str());
        return exitCodeFor(wrote);
    }
    std::size_t spans = 0;
    for (const auto &input : inputs)
        spans += input.events.size();
    std::printf("merged %zu spans from %zu trace(s) into %s\n", spans,
                inputs.size(), out_path.c_str());
    return kExitOk;
}

int
cmdPromCheck(const std::string &path)
{
    const auto text = readWholeFile(path);
    if (!text)
        return kExitIo;
    const Status status = obs::promStrictParse(*text);
    if (!status.ok()) {
        std::fprintf(stderr, "dynex: %s: %s\n", path.c_str(),
                     status.toString().c_str());
        return exitCodeFor(status);
    }
    std::printf("%s: valid Prometheus text exposition\n", path.c_str());
    return kExitOk;
}

} // namespace

int
main(int argc, char **argv)
{
    if (argc < 2)
        return usage();
    const std::string command = argv[1];

    if (command == "version" || command == "--version") {
        std::printf("dynex %s\n", versionString());
        return 0;
    }
    if (command == "help" || command == "--help" || command == "-h") {
        printUsage(stdout);
        return kExitOk;
    }
    if (command == "list")
        return cmdList();

    if (command == "remote-ls") {
        Options options;
        if (!parseOptions(argc, argv, 2, options))
            return kExitUsage;
        return cmdRemoteLs(options);
    }
    if (command == "remote-sweep") {
        if (argc < 3)
            return usage();
        Options options;
        if (!parseOptions(argc, argv, 3, options))
            return kExitUsage;
        return cmdRemoteSweep(argv[2], options);
    }
    if (command == "remote-stats") {
        Options options;
        if (!parseOptions(argc, argv, 2, options))
            return kExitUsage;
        return cmdRemoteStats(options);
    }
    if (command == "trace-merge") {
        if (argc < 4)
            return usage();
        std::vector<std::string> inputs;
        for (int i = 3; i < argc; ++i)
            inputs.emplace_back(argv[i]);
        return cmdTraceMerge(argv[2], inputs);
    }
    if (command == "prom-check") {
        if (argc < 3)
            return usage();
        return cmdPromCheck(argv[2]);
    }

    if (command == "gen") {
        if (argc < 4)
            return usage();
        Options options;
        options.stream = "mixed";
        if (!parseOptions(argc, argv, 4, options))
            return 2;
        return cmdGen(argv[2], argv[3], options);
    }
    if (command == "info") {
        if (argc < 3)
            return usage();
        return cmdInfo(argv[2]);
    }
    if (command == "convert") {
        if (argc < 4)
            return usage();
        Options options;
        if (!parseOptions(argc, argv, 4, options))
            return kExitUsage;
        return cmdConvert(argv[2], argv[3], options);
    }
    if (command == "import") {
        if (argc < 4)
            return usage();
        Options options;
        if (!parseOptions(argc, argv, 4, options))
            return kExitUsage;
        return cmdImport(argv[2], argv[3], options);
    }
    if (command == "campaign") {
        if (argc < 4)
            return usage();
        const std::string verb = argv[2];
        if (verb != "run" && verb != "check") {
            std::fprintf(stderr,
                         "dynex: campaign needs a verb: run or "
                         "check\n");
            return usage();
        }
        Options options;
        if (!parseOptions(argc, argv, 4, options))
            return kExitUsage;
        return cmdCampaign(verb, argv[3], options);
    }
    if (command == "sim" || command == "triad" || command == "sweep" ||
        command == "analyze") {
        if (argc < 3)
            return usage();
        Options options;
        if (!parseOptions(argc, argv, 3, options))
            return 2;
        if (command == "sim")
            return cmdSim(argv[2], options);
        if (command == "triad")
            return cmdTriad(argv[2], options);
        if (command == "sweep")
            return cmdSweep(argv[2], options);
        return cmdAnalyze(argv[2], options);
    }
    std::fprintf(stderr, "dynex: unknown command '%s'\n",
                 command.c_str());
    return usage();
}

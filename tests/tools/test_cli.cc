/**
 * @file
 * Integration tests of the dynex command-line tool, run as a
 * subprocess (the binary path is injected by CMake).
 */

#include <gtest/gtest.h>

#include <array>
#include <cstdio>
#include <fstream>
#include <regex>
#include <sstream>
#include <string>
#include <utility>

#if !defined(DYNEX_CLI_PATH) || !defined(DYNEX_SERVE_PATH) || \
    !defined(DYNEX_LOADGEN_PATH)
#error "the build system must define the dynex tools' *_PATH macros"
#endif

namespace
{

struct CommandResult
{
    int exitCode;
    std::string output;
};

/** Run @p binary with @p args; the output is its stdout, and its
 * stderr too unless @p stderr_to says where else it goes. */
CommandResult
runTool(const char *binary, const std::string &args,
        const char *stderr_to = "&1")
{
    const std::string command =
        std::string(binary) + " " + args + " 2>" + stderr_to;
    FILE *pipe = popen(command.c_str(), "r");
    EXPECT_NE(pipe, nullptr);
    std::string output;
    std::array<char, 4096> buffer;
    while (std::fgets(buffer.data(), buffer.size(), pipe) != nullptr)
        output += buffer.data();
    const int status = pclose(pipe);
    return {WEXITSTATUS(status), output};
}

CommandResult
runCli(const std::string &args)
{
    return runTool(DYNEX_CLI_PATH, args);
}

TEST(CliTool, ListShowsTheSuite)
{
    const auto result = runCli("list");
    EXPECT_EQ(result.exitCode, 0);
    EXPECT_NE(result.output.find("doduc"), std::string::npos);
    EXPECT_NE(result.output.find("tomcatv"), std::string::npos);
}

TEST(CliTool, NoArgumentsPrintsUsage)
{
    const auto result = runCli("");
    EXPECT_EQ(result.exitCode, 2);
    EXPECT_NE(result.output.find("usage:"), std::string::npos);
}

TEST(DaemonTools, HelpPrintsUsageToStdout)
{
    for (const char *binary : {DYNEX_SERVE_PATH, DYNEX_LOADGEN_PATH}) {
        for (const char *flag : {"--help", "-h"}) {
            SCOPED_TRACE(std::string(binary) + " " + flag);
            const auto result = runTool(binary, flag, "/dev/null");
            EXPECT_EQ(result.exitCode, 0);
            EXPECT_EQ(result.output.rfind("usage:", 0), 0u)
                << result.output;
        }
    }
}

TEST(DaemonTools, UnknownFlagIsReportedWithOrWithoutAValue)
{
    for (const char *binary : {DYNEX_SERVE_PATH, DYNEX_LOADGEN_PATH}) {
        for (const char *args :
             {"--bogus", "--bogus 7", "--port 1 --bogus"}) {
            SCOPED_TRACE(std::string(binary) + " " + args);
            const auto result = runTool(binary, args);
            EXPECT_EQ(result.exitCode, 2);
            EXPECT_NE(result.output.find("unknown option '--bogus'"),
                      std::string::npos)
                << result.output;
            EXPECT_EQ(result.output.find("needs a value"),
                      std::string::npos);
        }
    }
}

TEST(DaemonTools, AKnownFlagStillNeedsItsValue)
{
    for (const char *binary : {DYNEX_SERVE_PATH, DYNEX_LOADGEN_PATH}) {
        SCOPED_TRACE(binary);
        const auto result = runTool(binary, "--port");
        EXPECT_EQ(result.exitCode, 2);
        EXPECT_NE(result.output.find("--port needs a value"),
                  std::string::npos)
            << result.output;
    }
}

TEST(CliTool, UnknownCommandFails)
{
    const auto result = runCli("frobnicate");
    EXPECT_EQ(result.exitCode, 2);
    EXPECT_NE(result.output.find("unknown command"), std::string::npos);
}

TEST(CliTool, GenInfoConvertRoundTrip)
{
    const std::string dxt = ::testing::TempDir() + "/cli_test.dxt";
    const std::string din = ::testing::TempDir() + "/cli_test.din";

    auto gen = runCli("gen mat300 " + dxt + " --refs 5000");
    EXPECT_EQ(gen.exitCode, 0) << gen.output;
    EXPECT_NE(gen.output.find("wrote 5000 references"),
              std::string::npos);

    auto info = runCli("info " + dxt);
    EXPECT_EQ(info.exitCode, 0) << info.output;
    EXPECT_NE(info.output.find("5000 refs"), std::string::npos);

    auto convert = runCli("convert " + dxt + " " + din);
    EXPECT_EQ(convert.exitCode, 0) << convert.output;

    auto info2 = runCli("info " + din);
    EXPECT_EQ(info2.exitCode, 0) << info2.output;
    EXPECT_NE(info2.output.find("5000 refs"), std::string::npos);

    std::remove(dxt.c_str());
    std::remove(din.c_str());
}

TEST(CliTool, SimRunsOnABenchmark)
{
    const auto result =
        runCli("sim li --cache dynex --size 8KB --line 16 --lastline "
               "--refs 50000");
    EXPECT_EQ(result.exitCode, 0) << result.output;
    EXPECT_NE(result.output.find("dynamic-exclusion"),
              std::string::npos);
    EXPECT_NE(result.output.find("misses"), std::string::npos);
}

TEST(CliTool, SimSupportsTheOptimalModel)
{
    const auto result =
        runCli("sim li --cache opt --size 8KB --line 16 --refs 50000");
    EXPECT_EQ(result.exitCode, 0) << result.output;
    EXPECT_NE(result.output.find("optimal-direct-mapped"),
              std::string::npos);
}

TEST(CliTool, TriadComparesThreeModels)
{
    const auto result =
        runCli("triad mat300 --size 4KB --line 4 --refs 50000");
    EXPECT_EQ(result.exitCode, 0) << result.output;
    EXPECT_NE(result.output.find("direct-mapped"), std::string::npos);
    EXPECT_NE(result.output.find("dynamic-exclusion"),
              std::string::npos);
    EXPECT_NE(result.output.find("optimal"), std::string::npos);
    EXPECT_NE(result.output.find("reduction"), std::string::npos);
}

TEST(CliTool, SweepRunsThePaperSizeAxis)
{
    const auto result =
        runCli("sweep mat300 --line 4 --refs 30000 --threads 2");
    EXPECT_EQ(result.exitCode, 0) << result.output;
    EXPECT_NE(result.output.find("2 worker thread(s)"),
              std::string::npos);
    EXPECT_NE(result.output.find("1KB"), std::string::npos);
    EXPECT_NE(result.output.find("128KB"), std::string::npos);
    EXPECT_NE(result.output.find("dynex gain %"), std::string::npos);
}

TEST(CliTool, SweepOutputIdenticalAcrossThreadCounts)
{
    const auto one =
        runCli("sweep mat300 --line 4 --refs 30000 --threads 1");
    const auto four =
        runCli("sweep mat300 --line 4 --refs 30000 --threads 4");
    ASSERT_EQ(one.exitCode, 0) << one.output;
    ASSERT_EQ(four.exitCode, 0) << four.output;
    // Identical except for the reported worker count line.
    const auto body = [](const std::string &output) {
        return output.substr(output.find('\n'));
    };
    EXPECT_EQ(body(one.output), body(four.output));
}

TEST(CliTool, SweepWithInjectedFaultReportsPartialResults)
{
    const auto result = runCli(
        "sweep mat300 --line 4 --refs 30000 --threads 2 "
        "--inject-fault 4KB");
    EXPECT_EQ(result.exitCode, 5) << result.output;
    EXPECT_NE(result.output.find("1 of 8 legs failed"),
              std::string::npos);
    EXPECT_NE(result.output.find("results above are partial"),
              std::string::npos);
    EXPECT_NE(result.output.find("mat300.ifetch @ 4KB"),
              std::string::npos);
    EXPECT_NE(result.output.find("internal: injected fault"),
              std::string::npos);
    // The 4KB row is blanked out rather than fabricated.
    const auto row_start = result.output.find("\n4KB");
    ASSERT_NE(row_start, std::string::npos);
    const auto row = result.output.substr(
        row_start + 1, result.output.find('\n', row_start + 1) -
                           row_start - 1);
    EXPECT_EQ(row.find('.'), std::string::npos)
        << "no miss rates on the failed row: " << row;
}

TEST(CliTool, SweepWithInjectedFaultKeepsOtherRowsIdentical)
{
    const auto clean =
        runCli("sweep mat300 --line 4 --refs 30000 --threads 2");
    const auto faulted = runCli(
        "sweep mat300 --line 4 --refs 30000 --threads 2 "
        "--inject-fault 8KB");
    ASSERT_EQ(clean.exitCode, 0) << clean.output;
    ASSERT_EQ(faulted.exitCode, 5) << faulted.output;
    // Every row except 8KB must be byte-identical to the clean run.
    std::istringstream clean_lines(clean.output);
    std::string line;
    while (std::getline(clean_lines, line)) {
        if (line.rfind("8KB", 0) == 0 || line.empty())
            continue;
        EXPECT_NE(faulted.output.find(line), std::string::npos)
            << "missing row: " << line;
    }
}

TEST(CliTool, ThreadsFlagRejectsZero)
{
    const auto result = runCli("sweep mat300 --threads 0");
    EXPECT_EQ(result.exitCode, 2);
    EXPECT_NE(result.output.find("--threads"), std::string::npos);
}

TEST(CliTool, StickyFlagTakesOnly1To255)
{
    for (const char *args : {"sweep li --refs 1000 --sticky 0",
                             "triad li --refs 1000 --sticky 0",
                             "sim li --refs 1000 --sticky 0",
                             "sweep li --refs 1000 --sticky 257",
                             "sim li --refs 1000 --sticky x"}) {
        const auto result = runCli(args);
        EXPECT_EQ(result.exitCode, 2) << args;
        EXPECT_NE(result.output.find("sticky must be 1..255"),
                  std::string::npos)
            << args << ": " << result.output;
    }
    const auto widest =
        runCli("sim li --cache dynex --refs 1000 --sticky 255");
    EXPECT_EQ(widest.exitCode, 0) << widest.output;
}

TEST(CliTool, UsageDocumentsThreads)
{
    const auto result = runCli("");
    EXPECT_NE(result.output.find("--threads"), std::string::npos);
    EXPECT_NE(result.output.find("DYNEX_THREADS"), std::string::npos);
    EXPECT_NE(result.output.find("sweep"), std::string::npos);
}

std::string
readFile(const std::string &path)
{
    std::ifstream in(path, std::ios::binary);
    std::stringstream content;
    content << in.rdbuf();
    return content.str();
}

/** Blank the fields of a full metrics report that legitimately vary
 * run to run (wall-clock timings, worker count). */
std::string
scrubTimings(const std::string &json)
{
    static const std::regex varying(
        "\"(replayNs|dmReplayNs|deReplayNs|optReplayNs|"
        "trace-load-ns|index-build-ns|workers)\":[0-9]+");
    return std::regex_replace(json, varying, "\"$1\":0");
}

TEST(CliTool, UnknownOptionShowsFullUsage)
{
    const auto result = runCli("sweep mat300 --frobnicate");
    EXPECT_EQ(result.exitCode, 2);
    EXPECT_NE(result.output.find("unknown option '--frobnicate'"),
              std::string::npos);
    // The full usage text follows, including the obs flags, so the
    // fix is on screen rather than behind --help.
    EXPECT_NE(result.output.find("usage:"), std::string::npos);
    for (const char *flag :
         {"--metrics-out", "--csv-out", "--trace-out", "--progress",
          "--replay", "--threads"})
        EXPECT_NE(result.output.find(flag), std::string::npos)
            << flag;
}

TEST(CliTool, SweepWritesObservabilityOutputs)
{
    const std::string dir = ::testing::TempDir();
    const std::string metrics = dir + "/cli_obs_metrics.json";
    const std::string csv = dir + "/cli_obs_table.csv";
    const std::string events = dir + "/cli_obs_trace.json";

    const auto plain =
        runCli("sweep mat300 --line 4 --refs 30000 --threads 2");
    const auto observed = runCli(
        "sweep mat300 --line 4 --refs 30000 --threads 2 "
        "--metrics-out " + metrics + " --csv-out " + csv +
        " --trace-out " + events + " --progress");
    ASSERT_EQ(observed.exitCode, 0) << observed.output;
    // The result tables (stdout) are untouched by observability; the
    // progress bar precedes them on the merged stream (stderr).
    EXPECT_NE(observed.output.find(plain.output), std::string::npos);
    EXPECT_NE(observed.output.find("100.0%"), std::string::npos);

    const std::string report = readFile(metrics);
    EXPECT_NE(report.find("\"schema\":\"dynex-metrics-v1\""),
              std::string::npos);
    EXPECT_NE(report.find("mat300.ifetch"), std::string::npos);
    EXPECT_NE(report.find("\"deEvents\""), std::string::npos);

    const std::string table = readFile(csv);
    EXPECT_NE(table.find("bench,size_bytes,ok"), std::string::npos);
    EXPECT_NE(table.find("mat300.ifetch,1024,1"), std::string::npos);

    const std::string trace_json = readFile(events);
    EXPECT_NE(trace_json.find("\"traceEvents\""), std::string::npos);
    EXPECT_NE(trace_json.find("\"ph\":\"X\""), std::string::npos);
    EXPECT_NE(trace_json.find("sweep mat300.ifetch"),
              std::string::npos);

    std::remove(metrics.c_str());
    std::remove(csv.c_str());
    std::remove(events.c_str());
}

TEST(CliTool, MetricsReportStableAcrossThreadCounts)
{
    const std::string dir = ::testing::TempDir();
    const std::string one_path = dir + "/cli_obs_m1.json";
    const std::string four_path = dir + "/cli_obs_m4.json";
    const auto one =
        runCli("sweep mat300 --line 4 --refs 30000 --threads 1 "
               "--metrics-out " + one_path);
    const auto four =
        runCli("sweep mat300 --line 4 --refs 30000 --threads 4 "
               "--metrics-out " + four_path);
    ASSERT_EQ(one.exitCode, 0) << one.output;
    ASSERT_EQ(four.exitCode, 0) << four.output;
    // Everything except wall-clock timings and the worker count is
    // byte-identical: same legs, same order, same doubles.
    EXPECT_EQ(scrubTimings(readFile(one_path)),
              scrubTimings(readFile(four_path)));
    std::remove(one_path.c_str());
    std::remove(four_path.c_str());
}

TEST(CliTool, SweepDefaultsToTheKernelEngine)
{
    // The metrics report names the engine that ran: the kernel unless
    // --replay says otherwise; `batched` is an alias of the kernel and
    // `per-leg` stays the object-model reference. All three tables
    // are byte-identical.
    const std::string path = ::testing::TempDir() + "/cli_engine.json";
    const std::string sweep =
        "sweep mat300 --line 4 --refs 30000 --metrics-out " + path;
    const std::pair<const char *, const char *> cases[] = {
        {"", "kernel"},
        {" --replay batched", "kernel"},
        {" --replay kernel", "kernel"},
        {" --replay per-leg", "per-leg"},
    };
    const auto reference = runCli(sweep + " --replay per-leg");
    ASSERT_EQ(reference.exitCode, 0) << reference.output;
    for (const auto &[flag, engine] : cases) {
        const auto result = runCli(sweep + flag);
        ASSERT_EQ(result.exitCode, 0) << flag << result.output;
        EXPECT_EQ(result.output, reference.output) << flag;
        EXPECT_NE(readFile(path).find(std::string("\"engine\":\"") +
                                      engine + "\""),
                  std::string::npos)
            << "--replay" << flag << " should run " << engine;
    }
    std::remove(path.c_str());
}

TEST(CliTool, FileSweepsChargeTraceLoad)
{
    // A --metrics-out sweep of a DXT3 and of a DXT2 file charges the
    // trace's acquisition, every reference and a nonzero time, both
    // on the kernel's mapped path and on the per-leg engine's Trace
    // path; the tables agree across formats and engines.
    const std::string dir = ::testing::TempDir();
    const std::string dxt2 = dir + "/cli_load.dxt2";
    const std::string dxt3 = dir + "/cli_load.dxt3";
    const std::string report = dir + "/cli_load.json";
    ASSERT_EQ(runCli("gen mat300 " + dxt2 + " --refs 30000").exitCode, 0);
    ASSERT_EQ(runCli("convert " + dxt2 + " " + dxt3).exitCode, 0);

    static const std::regex load_ns("\"trace-load-ns\":([0-9]+)");
    std::string reference;
    for (const std::string &file : {dxt3, dxt2}) {
        for (const char *engine : {"kernel", "per-leg"}) {
            SCOPED_TRACE(file + " " + engine);
            const auto result =
                runCli("sweep " + file + " --line 4 --replay " + engine +
                       " --metrics-out " + report);
            ASSERT_EQ(result.exitCode, 0) << result.output;
            if (reference.empty())
                reference = result.output;
            EXPECT_EQ(result.output, reference);
            const std::string json = readFile(report);
            EXPECT_NE(json.find("\"trace-load-refs\":30000"),
                      std::string::npos)
                << json;
            std::smatch match;
            ASSERT_TRUE(std::regex_search(json, match, load_ns)) << json;
            EXPECT_GT(std::stoull(match[1].str()), 0u) << json;
        }
    }
    std::remove(dxt2.c_str());
    std::remove(dxt3.c_str());
    std::remove(report.c_str());
}

TEST(CliTool, MetricsReportRecordsInjectedFailures)
{
    const std::string dir = ::testing::TempDir();
    const std::string path = dir + "/cli_obs_fail.json";
    const auto result = runCli(
        "sweep mat300 --line 4 --refs 30000 --threads 2 "
        "--inject-fault 4KB --metrics-out " + path);
    EXPECT_EQ(result.exitCode, 5) << result.output;
    const std::string report = readFile(path);
    EXPECT_NE(report.find("\"sizeBytes\":4096,\"ok\":false"),
              std::string::npos);
    EXPECT_NE(report.find("internal: injected fault"),
              std::string::npos);
    std::remove(path.c_str());
}

TEST(CliTool, RejectsUnwritableMetricsPath)
{
    const auto result = runCli(
        "sweep mat300 --line 4 --refs 30000 "
        "--metrics-out /nonexistent-dir/x/metrics.json");
    EXPECT_EQ(result.exitCode, 3);
    EXPECT_NE(result.output.find("cannot write"), std::string::npos);
}

/** Write a two-source campaign spec into the test's temp dir. */
std::string
writeCampaignSpec(const std::string &stem)
{
    const std::string path = ::testing::TempDir() + "/" + stem + ".dxc";
    std::ofstream out(path);
    out << "campaign \"cli\" {\n"
           "  trace bench espresso as esp;\n"
           "  trace bench doduc;\n"
           "  models dm, dynex, opt;\n"
           "  sizes 1KB, 2KB;\n"
           "  lines 4, 16;\n"
           "  refs 20000;\n"
           "}\n";
    return path;
}

TEST(CliTool, CampaignRunWritesSourceSpans)
{
    const std::string spec = writeCampaignSpec("cli_campaign_trace");
    const std::string events =
        ::testing::TempDir() + "/cli_campaign_trace.json";
    const auto plain = runCli("campaign run " + spec + " --threads 4");
    const auto traced = runCli("campaign run " + spec +
                               " --threads 4 --trace-out " + events);
    ASSERT_EQ(traced.exitCode, 0) << traced.output;
    EXPECT_EQ(traced.output, plain.output);

    const std::string trace_json = readFile(events);
    for (const char *span : {"\"source esp\"", "\"load esp\"",
                             "\"sweep esp\"", "\"source doduc\"",
                             "\"load doduc\"", "\"sweep doduc\""})
        EXPECT_NE(trace_json.find(span), std::string::npos) << span;

    const auto unwritable =
        runCli("campaign run " + spec +
               " --trace-out /nonexistent-dir/x/trace.json");
    EXPECT_EQ(unwritable.exitCode, 3) << unwritable.output;
    EXPECT_NE(unwritable.output.find("cannot write"), std::string::npos);

    std::remove(spec.c_str());
    std::remove(events.c_str());
}

TEST(CliTool, CampaignRejectsSweepOnlyObservabilityFlags)
{
    const std::string spec = writeCampaignSpec("cli_campaign_flags");
    for (const std::string flag :
         {"--metrics-out m.json", "--csv-out t.csv", "--progress"}) {
        const auto result = runCli("campaign run " + spec + " " + flag);
        EXPECT_EQ(result.exitCode, 2) << flag << ": " << result.output;
        EXPECT_NE(result.output.find(flag.substr(0, flag.find(' '))),
                  std::string::npos)
            << result.output;
        EXPECT_EQ(result.output.find("campaign cli:"), std::string::npos)
            << "ran anyway: " << result.output;
    }
    const auto check =
        runCli("campaign check " + spec + " --trace-out t.json");
    EXPECT_EQ(check.exitCode, 2) << check.output;
    EXPECT_NE(check.output.find("--trace-out"), std::string::npos);
    std::remove(spec.c_str());
}

TEST(CliTool, AnalyzeReportsConflictStructure)
{
    const auto result =
        runCli("analyze li --size 32KB --line 4 --refs 50000");
    EXPECT_EQ(result.exitCode, 0) << result.output;
    EXPECT_NE(result.output.find("two-way"), std::string::npos);
    EXPECT_NE(result.output.find("reuse-distance"), std::string::npos);
}

TEST(CliTool, RejectsBadSize)
{
    const auto result = runCli("sim li --size banana");
    EXPECT_EQ(result.exitCode, 2);
    EXPECT_NE(result.output.find("bad size"), std::string::npos);
}

TEST(CliTool, RejectsUnknownBenchmark)
{
    const auto result = runCli("sim nosuchthing --refs 1000");
    EXPECT_EQ(result.exitCode, 2);
    EXPECT_NE(result.output.find("neither a file nor a benchmark"),
              std::string::npos);
}

TEST(CliTool, VersionFlagPrintsTheVersion)
{
    const auto dashed = runCli("--version");
    EXPECT_EQ(dashed.exitCode, 0);
    EXPECT_NE(dashed.output.find("dynex "), std::string::npos);
    // A version has at least major.minor digits.
    EXPECT_NE(dashed.output.find('.'), std::string::npos);

    const auto word = runCli("version");
    EXPECT_EQ(word.exitCode, 0);
    EXPECT_EQ(word.output, dashed.output);
}

TEST(CliTool, UsageDocumentsExitCodes)
{
    const auto result = runCli("");
    EXPECT_EQ(result.exitCode, 2);
    EXPECT_NE(result.output.find("exit codes:"), std::string::npos);
    EXPECT_NE(result.output.find("2 usage error"), std::string::npos);
    EXPECT_NE(result.output.find("3 i/o error"), std::string::npos);
    EXPECT_NE(result.output.find("4 data error"), std::string::npos);
    EXPECT_NE(result.output.find("5 internal error"),
              std::string::npos);
}

TEST(CliTool, CorruptTraceFileIsADataError)
{
    const std::string path = ::testing::TempDir() + "/cli_garbage.dxt";
    std::ofstream(path) << "this is not a trace file";
    const auto result = runCli("info " + path);
    EXPECT_EQ(result.exitCode, 4) << result.output;
    EXPECT_NE(result.output.find("cannot read"), std::string::npos);
    std::remove(path.c_str());
}

TEST(CliTool, MissingTraceFileIsAnIoError)
{
    const auto result = runCli("info /nonexistent-dir/nothing.dxt");
    EXPECT_EQ(result.exitCode, 3) << result.output;
}

TEST(CliTool, RemoteCommandsNeedAPort)
{
    const auto ls = runCli("remote-ls");
    EXPECT_EQ(ls.exitCode, 2) << ls.output;
    EXPECT_NE(ls.output.find("--port"), std::string::npos);

    const auto sweep = runCli("remote-sweep espresso");
    EXPECT_EQ(sweep.exitCode, 2) << sweep.output;
}

TEST(CliTool, RemoteLsAgainstADeadServerIsAnIoError)
{
    // Port 1 on loopback: reserved, nothing listens there.
    const auto result = runCli("remote-ls --port 1");
    EXPECT_EQ(result.exitCode, 3) << result.output;
}

} // namespace

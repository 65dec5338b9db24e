/**
 * @file
 * Tests of the Chrome trace-event tracer: output must parse as JSON
 * with the trace-event shape, and the recorded spans must nest — every
 * leg span inside its sweep span (per-leg engine), every chunk span
 * inside the kernel-replay pass (kernel engine).
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <sstream>

#include "json_checker.h"
#include "obs/trace_events.h"
#include "sim/sweep.h"
#include "util/thread_pool.h"

namespace dynex
{
namespace
{

struct ThreadCountGuard
{
    ~ThreadCountGuard() { ThreadPool::setConfiguredWorkers(0); }
};

Trace
conflictTrace()
{
    Trace trace("conflicts");
    for (int rep = 0; rep < 400; ++rep) {
        for (Addr a = 0; a < 24; ++a)
            trace.append(ifetch(0x1000 + 4 * a));
        for (Addr a = 0; a < 16; ++a)
            trace.append(ifetch(0x1000 + 512 + 4 * a));
    }
    return trace;
}

/** One parsed trace event, times in microseconds as emitted. */
struct Span
{
    std::string name;
    std::string cat;
    double ts = 0;
    double dur = 0;
};

std::vector<Span>
runTracedSweep(ReplayEngine engine, unsigned threads,
               std::string *json_out = nullptr)
{
    ThreadPool::setConfiguredWorkers(threads);
    const Trace trace = conflictTrace();
    obs::Tracer tracer;
    obs::Tracer::setActive(&tracer);
    obs::setPoolJobSpans(true);
    const bool all_ok =
        sweepSizes(trace, {64, 256, 1024}, 4, {}, engine).allOk();
    obs::setPoolJobSpans(false);
    obs::Tracer::setActive(nullptr);
    EXPECT_TRUE(all_ok);

    const std::string json = tracer.toJson();
    if (json_out)
        *json_out = json;
    const auto doc = testjson::JsonParser::parse(json);
    EXPECT_TRUE(doc.has_value()) << json.substr(0, 400);
    std::vector<Span> spans;
    if (!doc)
        return spans;
    const auto *events = doc->find("traceEvents");
    EXPECT_NE(events, nullptr);
    if (!events)
        return spans;
    for (const auto &event : events->items) {
        EXPECT_EQ(event.find("ph")->text, "X");
        EXPECT_NE(event.find("pid"), nullptr);
        EXPECT_NE(event.find("tid"), nullptr);
        spans.push_back({event.find("name")->text,
                         event.find("cat")->text,
                         event.find("ts")->number,
                         event.find("dur")->number});
    }
    return spans;
}

/** True when @p inner lies within @p outer (with a microsecond of
 * tolerance for the rounded emission). */
bool
nestedIn(const Span &inner, const Span &outer)
{
    return inner.ts >= outer.ts - 0.001 &&
           inner.ts + inner.dur <= outer.ts + outer.dur + 0.001;
}

TEST(Tracer, OutputIsValidTraceEventJson)
{
    ThreadCountGuard guard;
    std::string json;
    const auto spans =
        runTracedSweep(ReplayEngine::Kernel, 2, &json);
    ASSERT_FALSE(spans.empty());
    EXPECT_NE(json.find("\"displayTimeUnit\":\"ms\""),
              std::string::npos);
    // The engine-level spans are all present.
    const auto count = [&](const std::string &cat) {
        std::size_t n = 0;
        for (const auto &span : spans)
            n += span.cat == cat;
        return n;
    };
    EXPECT_EQ(count("sweep"), 1u);
    EXPECT_EQ(count("index"), 1u);
    EXPECT_EQ(count("replay"), 1u);
    EXPECT_GT(count("kernel"), 0u);
}

TEST(Tracer, LegSpansNestInsideTheSweepSpan)
{
    ThreadCountGuard guard;
    const auto spans = runTracedSweep(ReplayEngine::PerLeg, 4);
    const Span *sweep = nullptr;
    std::vector<const Span *> legs;
    for (const auto &span : spans) {
        if (span.cat == "sweep")
            sweep = &span;
        else if (span.cat == "leg")
            legs.push_back(&span);
    }
    ASSERT_NE(sweep, nullptr);
    ASSERT_EQ(legs.size(), 3u); // one per cache size
    for (const Span *leg : legs)
        EXPECT_TRUE(nestedIn(*leg, *sweep))
            << leg->name << " [" << leg->ts << ", "
            << leg->ts + leg->dur << "] outside " << sweep->name
            << " [" << sweep->ts << ", " << sweep->ts + sweep->dur
            << "]";
}

TEST(Tracer, ChunkSpansNestInsideTheBatchPass)
{
    // The sweep's 3 legs replay in min(workers, 3) leg groups, each
    // with one chunk span per 4096-reference chunk, on whichever thread
    // runs the group: all of them inside the one kernel-replay span.
    ThreadCountGuard guard;
    const std::size_t chunks_per_group =
        (conflictTrace().size() + 4095) / 4096;
    for (const unsigned threads : {2u, 4u}) {
        const auto spans = runTracedSweep(ReplayEngine::Kernel, threads);
        const Span *sweep = nullptr;
        std::vector<const Span *> passes;
        std::vector<const Span *> chunks;
        for (const auto &span : spans) {
            if (span.cat == "sweep")
                sweep = &span;
            else if (span.cat == "replay")
                passes.push_back(&span);
            else if (span.cat == "kernel")
                chunks.push_back(&span);
        }
        ASSERT_NE(sweep, nullptr);
        ASSERT_EQ(passes.size(), 1u) << threads << " workers";
        const Span &pass = *passes.front();
        EXPECT_EQ(chunks.size(),
                  chunks_per_group * std::min(threads, 3u))
            << threads << " workers";
        EXPECT_TRUE(nestedIn(pass, *sweep));
        for (const Span *chunk : chunks)
            EXPECT_TRUE(nestedIn(*chunk, pass))
                << chunk->name << ", " << threads << " workers";
    }
}

TEST(Tracer, SortedEventsOpenEnclosingSpansFirst)
{
    ThreadCountGuard guard;
    const auto spans = runTracedSweep(ReplayEngine::PerLeg, 2);
    for (std::size_t i = 1; i < spans.size(); ++i)
        EXPECT_LE(spans[i - 1].ts, spans[i].ts);
    // The sweep span starts earliest, so sorting puts it first.
    EXPECT_EQ(spans.front().cat, "sweep");
}

TEST(Tracer, WriteJsonRoundTripsThroughAFile)
{
    const std::string path =
        ::testing::TempDir() + "/tracer_roundtrip.json";
    obs::Tracer tracer;
    tracer.complete("a \"quoted\"\nname", "test", 10, 20);
    ASSERT_TRUE(tracer.writeJson(path).ok());
    std::ifstream in(path, std::ios::binary);
    std::stringstream content;
    content << in.rdbuf();
    EXPECT_EQ(content.str(), tracer.toJson());
    const auto doc = testjson::JsonParser::parse(content.str());
    ASSERT_TRUE(doc.has_value()) << content.str();
    std::remove(path.c_str());

    EXPECT_FALSE(
        tracer.writeJson("/nonexistent-dir/x/y/trace.json").ok());
}

TEST(Tracer, InactiveTracerCostsNothingAndRecordsNothing)
{
    EXPECT_EQ(obs::Tracer::active(), nullptr);
    {
        // A span built while no tracer is installed must not crash or
        // attach to a tracer installed later.
        obs::Phase span("test", "orphan");
        obs::Tracer tracer;
        obs::Tracer::setActive(&tracer);
        obs::Tracer::setActive(nullptr);
        EXPECT_TRUE(tracer.sortedEvents().empty());
    }
}

} // namespace
} // namespace dynex

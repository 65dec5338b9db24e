#include "obs/trace_merge.h"

#include <algorithm>
#include <cctype>
#include <cstdio>
#include <cstdlib>
#include <map>

#include "obs/json.h"

namespace dynex
{
namespace obs
{

namespace
{

/**
 * A minimal recursive-descent JSON reader, just enough for trace
 * files: it walks the document once and hands every object inside
 * "traceEvents" to a callback as flat key/value lookups. Tolerant of
 * unknown fields, strict about structure (a malformed document is
 * CorruptInput, never a crash).
 */
class JsonCursor
{
  public:
    explicit JsonCursor(std::string_view text) : data(text) {}

    bool failedParse() const { return failed; }
    std::string error() const { return errorText; }

    void skipWs()
    {
        while (at < data.size() &&
               std::isspace(static_cast<unsigned char>(data[at])))
            ++at;
    }

    bool eat(char c)
    {
        skipWs();
        if (at < data.size() && data[at] == c) {
            ++at;
            return true;
        }
        return false;
    }

    char peek()
    {
        skipWs();
        return at < data.size() ? data[at] : '\0';
    }

    void fail(const std::string &what)
    {
        if (!failed) {
            failed = true;
            errorText = what + " at byte " + std::to_string(at);
        }
        at = data.size();
    }

    std::string parseString()
    {
        std::string out;
        if (!eat('"')) {
            fail("expected string");
            return out;
        }
        while (at < data.size() && data[at] != '"') {
            char c = data[at++];
            if (c == '\\' && at < data.size()) {
                const char esc = data[at++];
                switch (esc) {
                  case 'n': c = '\n'; break;
                  case 'r': c = '\r'; break;
                  case 't': c = '\t'; break;
                  case 'u':
                    // Keep the raw escape; trace names never need it.
                    out += "\\u";
                    continue;
                  default: c = esc; break;
                }
            }
            out += c;
        }
        if (!eat('"'))
            fail("unterminated string");
        return out;
    }

    double parseNumber()
    {
        skipWs();
        const char *start = data.data() + at;
        char *end = nullptr;
        const double value = std::strtod(start, &end);
        if (end == start) {
            fail("expected number");
            return 0.0;
        }
        at += static_cast<std::size_t>(end - start);
        return value;
    }

    /** Skip any JSON value. */
    void skipValue()
    {
        switch (peek()) {
          case '"':
            parseString();
            return;
          case '{': {
            eat('{');
            if (eat('}'))
                return;
            do {
                parseString();
                if (!eat(':')) {
                    fail("expected ':'");
                    return;
                }
                skipValue();
            } while (eat(','));
            if (!eat('}'))
                fail("unterminated object");
            return;
          }
          case '[': {
            eat('[');
            if (eat(']'))
                return;
            do
                skipValue();
            while (eat(','));
            if (!eat(']'))
                fail("unterminated array");
            return;
          }
          case 't':
          case 'f':
          case 'n': {
            while (at < data.size() &&
                   std::isalpha(static_cast<unsigned char>(data[at])))
                ++at;
            return;
          }
          default:
            parseNumber();
        }
    }

    std::string_view data;
    std::size_t at = 0;

  private:
    bool failed = false;
    std::string errorText;
};

std::uint64_t
parseHexId(const std::string &text)
{
    if (text.compare(0, 2, "0x") != 0)
        return 0;
    return std::strtoull(text.c_str() + 2, nullptr, 16);
}

/** Parse one traceEvents object into @p event; @return false for
 * non-"X" (metadata) events, which the merger skips. */
bool
parseEventObject(JsonCursor &cur, MergeEvent &event)
{
    bool isComplete = false;
    if (!cur.eat('{')) {
        cur.fail("expected event object");
        return false;
    }
    if (cur.eat('}'))
        return false;
    do {
        const std::string key = cur.parseString();
        if (!cur.eat(':')) {
            cur.fail("expected ':'");
            return false;
        }
        if (key == "name") {
            event.name = cur.parseString();
        } else if (key == "cat") {
            event.category = cur.parseString();
        } else if (key == "ph") {
            isComplete = cur.parseString() == "X";
        } else if (key == "tid") {
            event.tid = static_cast<std::uint32_t>(cur.parseNumber());
        } else if (key == "ts") {
            event.tsUs = cur.parseNumber();
        } else if (key == "dur") {
            event.durUs = cur.parseNumber();
        } else if (key == "args") {
            // Look for args.trace, skip everything else.
            if (!cur.eat('{')) {
                cur.fail("expected args object");
                return false;
            }
            if (!cur.eat('}')) {
                do {
                    const std::string argKey = cur.parseString();
                    if (!cur.eat(':')) {
                        cur.fail("expected ':'");
                        return false;
                    }
                    if (argKey == "trace")
                        event.traceId = parseHexId(cur.parseString());
                    else
                        cur.skipValue();
                } while (cur.eat(','));
                if (!cur.eat('}')) {
                    cur.fail("unterminated args");
                    return false;
                }
            }
        } else {
            cur.skipValue();
        }
    } while (cur.eat(','));
    if (!cur.eat('}')) {
        cur.fail("unterminated event");
        return false;
    }
    return isComplete && !cur.failedParse();
}

/** Per-trace-id midpoint (us) of all spans carrying the id. */
std::map<std::uint64_t, double>
idMidpoints(const std::vector<MergeEvent> &events)
{
    struct Extent
    {
        double lo = 0.0, hi = 0.0;
        bool any = false;
    };
    std::map<std::uint64_t, Extent> extents;
    for (const MergeEvent &event : events) {
        if (event.traceId == 0)
            continue;
        Extent &e = extents[event.traceId];
        const double lo = event.tsUs;
        const double hi = event.tsUs + event.durUs;
        if (!e.any || lo < e.lo)
            e.lo = lo;
        if (!e.any || hi > e.hi)
            e.hi = hi;
        e.any = true;
    }
    std::map<std::uint64_t, double> mids;
    for (const auto &[id, e] : extents)
        mids[id] = (e.lo + e.hi) / 2.0;
    return mids;
}

double
minTs(const std::vector<MergeEvent> &events)
{
    double lo = 0.0;
    bool any = false;
    for (const MergeEvent &event : events) {
        if (!any || event.tsUs < lo)
            lo = event.tsUs;
        any = true;
    }
    return lo;
}

} // namespace

Result<std::vector<MergeEvent>>
parseChromeTrace(std::string_view json)
{
    JsonCursor cur(json);
    std::vector<MergeEvent> events;
    if (!cur.eat('{'))
        return Status::corruptInput("trace: expected top-level object");
    if (!cur.eat('}')) {
        do {
            const std::string key = cur.parseString();
            if (!cur.eat(':'))
                return Status::corruptInput("trace: expected ':'");
            if (key == "traceEvents") {
                if (!cur.eat('['))
                    return Status::corruptInput(
                        "trace: traceEvents is not an array");
                if (!cur.eat(']')) {
                    do {
                        MergeEvent event;
                        if (parseEventObject(cur, event))
                            events.push_back(std::move(event));
                    } while (cur.eat(','));
                    if (!cur.eat(']'))
                        return Status::corruptInput(
                            "trace: unterminated traceEvents");
                }
            } else {
                cur.skipValue();
            }
        } while (cur.eat(','));
        if (!cur.eat('}'))
            return Status::corruptInput(
                "trace: unterminated top-level object");
    }
    if (cur.failedParse())
        return Status::corruptInput("trace: " + cur.error());
    return events;
}

std::string
mergeChromeTraces(const std::vector<MergeInput> &inputs)
{
    // Clock alignment: input 0 is the reference timeline. Later
    // inputs shift by the mean midpoint offset over trace ids shared
    // with the reference; with none shared, by earliest-timestamp
    // alignment (the merged view is then ordered but not causal).
    std::vector<double> offsets(inputs.size(), 0.0);
    const std::map<std::uint64_t, double> refMids =
        inputs.empty() ? std::map<std::uint64_t, double>{}
                       : idMidpoints(inputs[0].events);
    for (std::size_t i = 1; i < inputs.size(); ++i) {
        const std::map<std::uint64_t, double> mids =
            idMidpoints(inputs[i].events);
        double sum = 0.0;
        std::size_t shared = 0;
        for (const auto &[id, mid] : mids) {
            const auto ref = refMids.find(id);
            if (ref == refMids.end())
                continue;
            sum += ref->second - mid;
            ++shared;
        }
        offsets[i] = shared > 0
                         ? sum / static_cast<double>(shared)
                         : minTs(inputs[0].events) -
                               minTs(inputs[i].events);
    }

    struct Placed
    {
        const MergeEvent *event;
        int pid;
        double tsUs;
    };
    std::vector<Placed> placed;
    double lowest = 0.0;
    bool any = false;
    for (std::size_t i = 0; i < inputs.size(); ++i) {
        for (const MergeEvent &event : inputs[i].events) {
            const double ts = event.tsUs + offsets[i];
            placed.push_back({&event, static_cast<int>(i + 1), ts});
            if (!any || ts < lowest)
                lowest = ts;
            any = true;
        }
    }
    // Normalize so the merged timeline starts at ts >= 0 (negative
    // timestamps confuse some viewers).
    for (Placed &p : placed)
        p.tsUs -= lowest;

    std::stable_sort(placed.begin(), placed.end(),
                     [](const Placed &a, const Placed &b) {
                         if (a.tsUs != b.tsUs)
                             return a.tsUs < b.tsUs;
                         return a.event->durUs > b.event->durUs;
                     });

    std::string out = "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[";
    bool first = true;
    for (std::size_t i = 0; i < inputs.size(); ++i) {
        if (!first)
            out += ',';
        first = false;
        out += "\n{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":" +
               std::to_string(i + 1) + ",\"args\":{\"name\":";
        appendJsonString(out, inputs[i].label);
        out += "}}";
    }
    char buf[64];
    for (const Placed &p : placed) {
        if (!first)
            out += ',';
        first = false;
        out += "\n{\"name\":";
        appendJsonString(out, p.event->name);
        out += ",\"cat\":";
        appendJsonString(out, p.event->category);
        out += ",\"ph\":\"X\",\"pid\":" + std::to_string(p.pid);
        std::snprintf(buf, sizeof(buf), ",\"tid\":%u,\"ts\":%.3f,\"dur\":%.3f",
                      p.event->tid, p.tsUs, p.event->durUs);
        out += buf;
        if (p.event->traceId != 0) {
            std::snprintf(buf, sizeof(buf),
                          ",\"args\":{\"trace\":\"0x%016llx\"}",
                          static_cast<unsigned long long>(
                              p.event->traceId));
            out += buf;
        }
        out += '}';
    }
    out += "\n]}\n";
    return out;
}

} // namespace obs
} // namespace dynex

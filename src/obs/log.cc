#include "obs/log.h"

#include <chrono>

#include "obs/json.h"
#include "obs/metrics.h"
#include "obs/progress.h"

namespace dynex
{
namespace obs
{

namespace
{

std::atomic<Logger *> activeLogger{nullptr};

/** Wall-clock milliseconds since the Unix epoch, for log timestamps.
 * (The simulation itself never reads wall time; logs are for humans
 * correlating with the outside world.) */
std::uint64_t
wallMs()
{
    return static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::milliseconds>(
            std::chrono::system_clock::now().time_since_epoch())
            .count());
}

} // namespace

const char *
logLevelName(LogLevel level)
{
    switch (level) {
      case LogLevel::Debug: return "debug";
      case LogLevel::Info: return "info";
      case LogLevel::Warn: return "warn";
      case LogLevel::Error: return "error";
    }
    return "unknown";
}

bool
parseLogLevel(std::string_view name, LogLevel &level)
{
    if (name == "debug")
        level = LogLevel::Debug;
    else if (name == "info")
        level = LogLevel::Info;
    else if (name == "warn")
        level = LogLevel::Warn;
    else if (name == "error")
        level = LogLevel::Error;
    else
        return false;
    return true;
}

std::mutex &
sinkMutex()
{
    static std::mutex mutex;
    return mutex;
}

// ---------------------------------------------------------------------
// LogLine

LogLine::LogLine(Logger *owner, LogLevel level, std::string_view event,
                 std::uint64_t dropped_since_last)
    : logger(owner)
{
    if (!logger)
        return;
    body = "{\"ts-ms\":" + std::to_string(wallMs());
    body += ",\"level\":\"";
    body += logLevelName(level);
    body += "\",\"event\":";
    appendJsonString(body, event);
    if (dropped_since_last != 0)
        body += ",\"dropped\":" + std::to_string(dropped_since_last);
}

LogLine::LogLine(LogLine &&other) noexcept
    : logger(other.logger), body(std::move(other.body))
{
    other.logger = nullptr;
}

LogLine::~LogLine()
{
    if (!logger)
        return;
    body += '}';
    logger->emit(body);
}

LogLine &
LogLine::str(std::string_view key, std::string_view value)
{
    if (!logger)
        return *this;
    body += ',';
    appendJsonString(body, key);
    body += ':';
    appendJsonString(body, value);
    return *this;
}

LogLine &
LogLine::u64(std::string_view key, std::uint64_t value)
{
    if (!logger)
        return *this;
    body += ',';
    appendJsonString(body, key);
    body += ':';
    body += std::to_string(value);
    return *this;
}

LogLine &
LogLine::i64(std::string_view key, std::int64_t value)
{
    if (!logger)
        return *this;
    body += ',';
    appendJsonString(body, key);
    body += ':';
    body += std::to_string(value);
    return *this;
}

LogLine &
LogLine::hex(std::string_view key, std::uint64_t value)
{
    if (!logger)
        return *this;
    char buf[24];
    std::snprintf(buf, sizeof(buf), "0x%016llx",
                  static_cast<unsigned long long>(value));
    return str(key, buf);
}

LogLine &
LogLine::boolean(std::string_view key, bool value)
{
    if (!logger)
        return *this;
    body += ',';
    appendJsonString(body, key);
    body += value ? ":true" : ":false";
    return *this;
}

// ---------------------------------------------------------------------
// Logger

Logger::Logger(Options options)
    : opts(options),
      tokens(static_cast<double>(options.burst)),
      lastRefillNs(monotonicNs())
{
}

Logger *
Logger::active()
{
    return activeLogger.load(std::memory_order_relaxed);
}

void
Logger::setActive(Logger *logger)
{
    activeLogger.store(logger, std::memory_order_relaxed);
}

bool
Logger::admit()
{
    if (opts.ratePerSec == 0)
        return true;
    std::lock_guard<std::mutex> lock(bucketMutex);
    const std::uint64_t now = monotonicNs();
    const double elapsedSec =
        static_cast<double>(now - lastRefillNs) * 1e-9;
    lastRefillNs = now;
    tokens += elapsedSec * static_cast<double>(opts.ratePerSec);
    const double cap = static_cast<double>(opts.burst);
    if (tokens > cap)
        tokens = cap;
    if (tokens < 1.0)
        return false;
    tokens -= 1.0;
    return true;
}

LogLine
Logger::line(LogLevel level, std::string_view event)
{
    if (level < opts.minLevel)
        return LogLine(nullptr, level, event, 0);
    // Warn/error are exempt from the bucket: when something is wrong
    // the evidence must not be the thing that gets shed.
    if (level < LogLevel::Warn && !admit()) {
        dropped.fetch_add(1, std::memory_order_relaxed);
        pendingDropped.fetch_add(1, std::memory_order_relaxed);
        return LogLine(nullptr, level, event, 0);
    }
    return LogLine(this, level, event,
                   pendingDropped.exchange(0,
                                           std::memory_order_relaxed));
}

void
Logger::emit(const std::string &body)
{
    ProgressBar *bar = ProgressBar::active();
    {
        std::lock_guard<std::mutex> lock(sinkMutex());
        // A live progress bar owns the current terminal line: clear it
        // so the log line starts at column 0, then let the bar repaint
        // on its own line afterwards.
        if (bar && opts.sink == stderr)
            std::fputs("\r\x1b[K", opts.sink);
        std::fputs(body.c_str(), opts.sink);
        std::fputc('\n', opts.sink);
        std::fflush(opts.sink);
    }
    if (bar && opts.sink == stderr)
        bar->redraw();
}

} // namespace obs
} // namespace dynex

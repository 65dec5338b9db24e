#include "sim/workloads.h"

#include <cstdlib>
#include <deque>
#include <mutex>
#include <utility>

#include "trace/filter.h"
#include "tracegen/spec.h"
#include "util/logging.h"

namespace dynex
{

namespace
{

constexpr Count kBuiltinDefaultRefs = 2'000'000;
constexpr std::size_t kMemoCapacity = 3;

struct MemoEntry
{
    std::string key;
    std::shared_ptr<const Trace> trace;
};

std::deque<MemoEntry> &
memo()
{
    static std::deque<MemoEntry> entries;
    return entries;
}

/**
 * Guards the memo against the parallel sweep engine, which loads
 * traces from worker threads. Generation happens outside the lock;
 * concurrent generation of the same key is wasted work but harmless
 * (generation is deterministic, so both products are identical).
 */
std::mutex &
memoMutex()
{
    static std::mutex m;
    return m;
}

std::shared_ptr<const Trace>
memoLookup(const std::string &key)
{
    const std::lock_guard<std::mutex> lock(memoMutex());
    for (const auto &entry : memo()) {
        if (entry.key == key)
            return entry.trace;
    }
    return nullptr;
}

void
memoInsert(std::string key, std::shared_ptr<const Trace> trace)
{
    const std::lock_guard<std::mutex> lock(memoMutex());
    memo().push_front({std::move(key), std::move(trace)});
    while (memo().size() > kMemoCapacity)
        memo().pop_back();
}

/**
 * Keep only references of one kind, then truncate to @p refs; widen
 * the generation budget until enough survive (generation is
 * deterministic, so widening only extends the stream). The mixed
 * stream comes from the memo when @p memoize is set.
 */
std::shared_ptr<const Trace>
filtered(const std::string &name, Count refs, bool want_data,
         bool memoize = true)
{
    Count budget = refs * 2;
    for (int attempt = 0; attempt < 8; ++attempt) {
        const auto base =
            memoize ? Workloads::mixed(name, budget)
                    : std::make_shared<const Trace>(
                          makeSpecTrace(name, budget));
        Trace subset = want_data ? dataRefs(*base) : instructionRefs(*base);
        if (subset.size() >= refs) {
            return std::make_shared<const Trace>(truncate(subset, refs));
        }
        budget *= 2;
    }
    DYNEX_FATAL("benchmark '", name, "' produced too few ",
                want_data ? "data" : "instruction", " references");
}

} // namespace

Count
Workloads::defaultRefs()
{
    if (const char *env = std::getenv("DYNEX_REFS")) {
        const auto value = std::strtoull(env, nullptr, 10);
        if (value > 0)
            return value;
        DYNEX_WARN("ignoring invalid DYNEX_REFS='", env, "'");
    }
    return kBuiltinDefaultRefs;
}

std::shared_ptr<const Trace>
Workloads::mixed(const std::string &name, Count refs)
{
    const std::string key =
        "mixed:" + name + ":" + std::to_string(refs);
    if (auto hit = memoLookup(key))
        return hit;
    auto trace =
        std::make_shared<const Trace>(makeSpecTrace(name, refs));
    memoInsert(key, trace);
    return trace;
}

std::shared_ptr<const Trace>
Workloads::instructions(const std::string &name, Count refs)
{
    const std::string key =
        "ifetch:" + name + ":" + std::to_string(refs);
    if (auto hit = memoLookup(key))
        return hit;
    auto trace = filtered(name, refs, /*want_data=*/false);
    memoInsert(key, trace);
    return trace;
}

std::shared_ptr<const Trace>
Workloads::generateInstructions(const std::string &name, Count refs)
{
    return filtered(name, refs, /*want_data=*/false, /*memoize=*/false);
}

std::shared_ptr<const Trace>
Workloads::data(const std::string &name, Count refs)
{
    const std::string key = "data:" + name + ":" + std::to_string(refs);
    if (auto hit = memoLookup(key))
        return hit;
    auto trace = filtered(name, refs, /*want_data=*/true);
    memoInsert(key, trace);
    return trace;
}

void
Workloads::dropCache()
{
    const std::lock_guard<std::mutex> lock(memoMutex());
    memo().clear();
}

} // namespace dynex

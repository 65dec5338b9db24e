#include "util/thread_pool.h"

#include <algorithm>
#include <cstdlib>
#include <utility>

#include "util/logging.h"

namespace dynex
{

namespace
{

/** Explicit override from setConfiguredWorkers (0 = automatic). */
std::atomic<unsigned> configuredOverride{0};

std::mutex globalPoolMutex;
std::unique_ptr<ThreadPool> globalPool;

std::atomic<ThreadPool::JobObserver> jobObserver{nullptr};

/** Run body(i), reporting the interval to the observer if one is
 * installed — including when the body throws, so a failing leg still
 * shows up as a span. */
void
invokeBody(const std::function<void(std::size_t)> &body, std::size_t i)
{
    const auto observer = jobObserver.load(std::memory_order_relaxed);
    if (!observer) {
        body(i);
        return;
    }
    const auto start = std::chrono::steady_clock::now();
    try {
        body(i);
    } catch (...) {
        observer(i, start, std::chrono::steady_clock::now());
        throw;
    }
    observer(i, start, std::chrono::steady_clock::now());
}

unsigned
autoWorkers()
{
    // Parsed once: the environment cannot usefully change mid-process
    // and a bad value should warn once, not on every pool query.
    static const unsigned workers = [] {
        if (const char *env = std::getenv("DYNEX_THREADS")) {
            const unsigned long value = std::strtoul(env, nullptr, 10);
            if (value >= 1)
                return static_cast<unsigned>(value);
            DYNEX_WARN("ignoring invalid DYNEX_THREADS='", env, "'");
        }
        const unsigned hw = std::thread::hardware_concurrency();
        return hw >= 1 ? hw : 1;
    }();
    return workers;
}

} // namespace

void
ThreadPool::setJobObserver(JobObserver observer)
{
    jobObserver.store(observer, std::memory_order_relaxed);
}

unsigned
ThreadPool::configuredWorkers()
{
    const unsigned override = configuredOverride.load();
    return override >= 1 ? override : autoWorkers();
}

void
ThreadPool::setConfiguredWorkers(unsigned workers)
{
    configuredOverride.store(workers);
    std::lock_guard<std::mutex> lock(globalPoolMutex);
    globalPool.reset();
}

ThreadPool &
ThreadPool::global()
{
    std::lock_guard<std::mutex> lock(globalPoolMutex);
    if (!globalPool ||
        globalPool->workers() != configuredWorkers()) {
        globalPool = std::make_unique<ThreadPool>(configuredWorkers());
    }
    return *globalPool;
}

ThreadPool::ThreadPool(unsigned workers)
    : workerTarget(workers >= 1 ? workers : configuredWorkers())
{
    threads.reserve(workerTarget - 1);
    for (unsigned i = 0; i + 1 < workerTarget; ++i)
        threads.emplace_back([this] { workerMain(); });
}

ThreadPool::~ThreadPool()
{
    {
        std::lock_guard<std::mutex> lock(queueMutex);
        stopping = true;
    }
    queueCv.notify_all();
    for (auto &thread : threads)
        thread.join();
}

void
ThreadPool::workerMain()
{
    for (;;) {
        std::shared_ptr<Loop> loop;
        {
            std::unique_lock<std::mutex> lock(queueMutex);
            queueCv.wait(lock,
                         [this] { return stopping || !queue.empty(); });
            if (queue.empty())
                return; // stopping and nothing left to help with
            loop = std::move(queue.front());
            queue.pop_front();
        }
        runLoop(*loop);
    }
}

void
ThreadPool::runLoop(Loop &loop)
{
    for (;;) {
        const std::size_t i = loop.next.fetch_add(1);
        if (i >= loop.total)
            return;
        try {
            invokeBody(*loop.body, i);
        } catch (...) {
            if (loop.errors) {
                std::lock_guard<std::mutex> lock(loop.errorsMutex);
                loop.errors->push_back({i, std::current_exception()});
            } else {
                std::call_once(loop.errorOnce, [&loop] {
                    loop.error = std::current_exception();
                });
            }
        }
        if (loop.done.fetch_add(1) + 1 == loop.total) {
            // All indices finished; release the waiting caller. The
            // lock pairs with the caller's predicate check so the
            // notify cannot be lost.
            std::lock_guard<std::mutex> lock(loop.doneMutex);
            loop.doneCv.notify_all();
        }
    }
}

void
ThreadPool::parallelFor(std::size_t n,
                        const std::function<void(std::size_t)> &body)
{
    if (workerTarget <= 1 || n <= 1) {
        // Serial fast path: no shared state, no locking.
        for (std::size_t i = 0; i < n; ++i)
            invokeBody(body, i);
        return;
    }
    runShared(n, body, nullptr);
}

std::vector<IndexedError>
ThreadPool::parallelForCollect(
    std::size_t n, const std::function<void(std::size_t)> &body)
{
    std::vector<IndexedError> errors;
    if (workerTarget <= 1 || n <= 1) {
        for (std::size_t i = 0; i < n; ++i) {
            try {
                invokeBody(body, i);
            } catch (...) {
                errors.push_back({i, std::current_exception()});
            }
        }
        return errors;
    }
    runShared(n, body, &errors);
    // Capture order depends on scheduling; index order does not.
    std::sort(errors.begin(), errors.end(),
              [](const IndexedError &a, const IndexedError &b) {
                  return a.index < b.index;
              });
    return errors;
}

void
ThreadPool::runShared(std::size_t n,
                      const std::function<void(std::size_t)> &body,
                      std::vector<IndexedError> *errors)
{
    auto loop = std::make_shared<Loop>();
    loop->total = n;
    loop->body = &body;
    loop->errors = errors;

    // One helper ticket per background thread that could usefully
    // join; late poppers see the index counter exhausted and return
    // immediately, so over-provisioning is harmless.
    const std::size_t helpers =
        std::min<std::size_t>(threads.size(), n - 1);
    {
        std::lock_guard<std::mutex> lock(queueMutex);
        for (std::size_t i = 0; i < helpers; ++i)
            queue.push_back(loop);
    }
    if (helpers == 1)
        queueCv.notify_one();
    else
        queueCv.notify_all();

    // The caller is always a participant, so the loop completes even
    // if every background thread is busy elsewhere (e.g. nesting).
    runLoop(*loop);
    {
        std::unique_lock<std::mutex> lock(loop->doneMutex);
        loop->doneCv.wait(lock, [&loop] {
            return loop->done.load() == loop->total;
        });
    }
    // Take the error out of the Loop before rethrowing: a worker may
    // hold the last reference to the Loop, and the exception must not
    // be freed when that worker drops it.
    if (std::exception_ptr error = std::exchange(loop->error, nullptr))
        std::rethrow_exception(error);
}

} // namespace dynex

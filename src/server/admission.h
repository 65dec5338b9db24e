/**
 * @file
 * Cost-based admission control for the dynex server. Before a replay
 * or sweep is executed, the server estimates its cost in nanoseconds
 * (refs x legs x a live ns-per-ref-leg EWMA per work kind, fed by the
 * service times of completed requests) and sheds the request with a
 * computed retry-after hint when either:
 *
 *   - the concurrent-cost budget is exhausted: the sum of estimated
 *     costs of requests currently in flight would exceed
 *     `costBudgetNs` (one exception: a lone request is always
 *     admitted when nothing is in flight, so an oversized sweep can
 *     never starve itself forever); or
 *   - the client's token bucket is empty: each client id (from the
 *     DXP1 hello, "anon" otherwise) holds a bucket of `clientBurstNs`
 *     cost tokens refilled at `clientRefillNsPerSec`, so one greedy
 *     client cannot monopolize the budget while others wait. A
 *     request costlier than a full burst charges at most one burst,
 *     so it becomes affordable once the bucket refills instead of
 *     starving forever.
 *
 * The retry-after hint is the time until the constraint that shed the
 * request plausibly clears (budget drain or bucket refill), clamped
 * to [minRetryAfterMs, maxRetryAfterMs].
 *
 * The controller is deterministic and clock-free: every entry point
 * takes an explicit `now_ns`, so unit tests drive time by hand.
 */

#ifndef DYNEX_SERVER_ADMISSION_H
#define DYNEX_SERVER_ADMISSION_H

#include <cstdint>
#include <mutex>
#include <string>
#include <unordered_map>

namespace dynex
{
namespace server
{

/** What a request is about to do, for the cost model. */
enum class WorkKind : std::uint8_t
{
    Trivial = 0,  ///< ping / list / stats / hello: never shed
    Replay,       ///< one model over one trace
    SweepPerLeg,  ///< full triad sweep, per-leg engine
    SweepKernel,  ///< full triad sweep, SoA kernel engine
};

inline constexpr std::size_t kWorkKindCount = 4;

/** The kind of a DXP1 sweep whose request carries engine byte
 * @p engine: 1 runs the per-leg object models, while 0 (the retired
 * batched engine's byte) and 2 both run the kernel and so share one
 * cost estimate. */
WorkKind sweepWorkKind(std::uint8_t engine);

struct AdmissionConfig
{
    bool enabled = true;
    /** Max summed estimated cost of requests in flight. */
    std::uint64_t costBudgetNs = 2'000'000'000;
    /** Per-client token bucket capacity, in estimated-cost ns. */
    std::uint64_t clientBurstNs = 1'000'000'000;
    /** Per-client bucket refill rate, in estimated-cost ns per second
     * of wall time. */
    std::uint64_t clientRefillNsPerSec = 500'000'000;
    /** Clamp on the retry-after hint carried by BUSY. */
    std::uint32_t minRetryAfterMs = 10;
    std::uint32_t maxRetryAfterMs = 5000;
    /** Bound on tracked client buckets; the least recently refilled
     * bucket is dropped when a new client would exceed it. */
    std::size_t maxClients = 1024;
};

/** The outcome of an admit() call. */
struct AdmissionDecision
{
    bool admitted = true;
    /** The request's estimated cost; pass back to release(). */
    std::uint64_t costNs = 0;
    /** When shed: the hint to carry in the BUSY frame. */
    std::uint32_t retryAfterMs = 0;
    /** "" when admitted, else "budget" or "client-rate". */
    const char *reason = "";
};

class AdmissionController
{
  public:
    explicit AdmissionController(AdmissionConfig admission_config);

    /**
     * Decide whether a request estimated at (kind, refs x legs) from
     * @p client_id may run now. An admitted request's costNs is
     * charged against the budget and the client's bucket until
     * release(). Trivial work and a disabled controller always admit
     * at zero cost.
     */
    AdmissionDecision admit(const std::string &client_id, WorkKind kind,
                            std::uint64_t refs, std::uint64_t legs,
                            std::uint64_t now_ns);

    /** Return an admitted request's cost to the budget. */
    void release(std::uint64_t cost_ns);

    /**
     * Feed the cost model with a completed request's measured service
     * time: the ns-per-ref-leg EWMA for @p kind moves toward
     * elapsed / (refs x legs).
     */
    void recordServiced(WorkKind kind, std::uint64_t refs,
                        std::uint64_t legs, std::uint64_t elapsed_ns);

    /** The current cost estimate for (kind, refs x legs). */
    std::uint64_t estimateCostNs(WorkKind kind, std::uint64_t refs,
                                 std::uint64_t legs) const;

    /** The hint for a BUSY caused by a full accept queue: how long
     * until the in-flight work plausibly drains. */
    std::uint32_t queueRetryAfterMs() const;

    /** Estimated cost currently in flight. */
    std::uint64_t outstandingNs() const;

    struct Counters
    {
        std::uint64_t admitted = 0; ///< cost-bearing requests admitted
        std::uint64_t shed = 0;     ///< requests shed with BUSY
        std::uint64_t retryAfterMsTotal = 0; ///< summed hints handed out
    };
    Counters counters() const;

  private:
    struct Bucket
    {
        std::uint64_t tokensNs = 0;
        std::uint64_t lastRefillNs = 0;
    };

    /** Clamp a ns-denominated wait into the configured ms hint range. */
    std::uint32_t clampRetryMs(std::uint64_t wait_ns) const;

    Bucket &bucketFor(const std::string &client_id,
                      std::uint64_t now_ns);

    AdmissionConfig config;

    mutable std::mutex mutex;
    double nsPerRefLeg[kWorkKindCount];
    std::uint64_t outstanding = 0; ///< admitted cost not yet released
    std::unordered_map<std::string, Bucket> buckets;
    Counters tallies;
};

} // namespace server
} // namespace dynex

#endif // DYNEX_SERVER_ADMISSION_H

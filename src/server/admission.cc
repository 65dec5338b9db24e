#include "server/admission.h"

#include <algorithm>
#include <cmath>

namespace dynex
{
namespace server
{

namespace
{

/** EWMA smoothing: each observation moves the estimate 20% of the way,
 * so the model adapts within a handful of requests without chasing a
 * single outlier. */
constexpr double kEwmaAlpha = 0.2;

/** Seed ns-per-ref-leg estimates, by WorkKind index. Rough magnitudes
 * from the repo's own benches; the EWMA converges onto the host's real
 * rates after the first few serviced requests. */
constexpr double kSeedNsPerRefLeg[kWorkKindCount] = {
    0.0, // Trivial: never costed
    2.0, // Replay
    2.0, // SweepPerLeg
    0.5, // SweepKernel
};

} // namespace

WorkKind
sweepWorkKind(std::uint8_t engine)
{
    return engine == 1 ? WorkKind::SweepPerLeg : WorkKind::SweepKernel;
}

AdmissionController::AdmissionController(AdmissionConfig admission_config)
    : config(admission_config)
{
    for (std::size_t k = 0; k < kWorkKindCount; ++k)
        nsPerRefLeg[k] = kSeedNsPerRefLeg[k];
    if (config.maxClients == 0)
        config.maxClients = 1;
    if (config.maxRetryAfterMs < config.minRetryAfterMs)
        config.maxRetryAfterMs = config.minRetryAfterMs;
}

std::uint32_t
AdmissionController::clampRetryMs(std::uint64_t wait_ns) const
{
    const std::uint64_t ms = wait_ns / 1'000'000;
    return static_cast<std::uint32_t>(
        std::clamp<std::uint64_t>(ms, config.minRetryAfterMs,
                                  config.maxRetryAfterMs));
}

AdmissionController::Bucket &
AdmissionController::bucketFor(const std::string &client_id,
                               std::uint64_t now_ns)
{
    auto found = buckets.find(client_id);
    if (found == buckets.end())
    {
        if (buckets.size() >= config.maxClients)
        {
            // Drop the least recently refilled bucket: the client
            // that has been quiet longest loses its (full) bucket.
            auto oldest = buckets.begin();
            for (auto it = buckets.begin(); it != buckets.end(); ++it)
                if (it->second.lastRefillNs < oldest->second.lastRefillNs)
                    oldest = it;
            buckets.erase(oldest);
        }
        Bucket fresh;
        fresh.tokensNs = config.clientBurstNs;
        fresh.lastRefillNs = now_ns;
        found = buckets.emplace(client_id, fresh).first;
        return found->second;
    }

    Bucket &bucket = found->second;
    if (now_ns > bucket.lastRefillNs)
    {
        const double elapsed_sec =
            static_cast<double>(now_ns - bucket.lastRefillNs) / 1e9;
        const double refill =
            elapsed_sec *
            static_cast<double>(config.clientRefillNsPerSec);
        const double filled =
            static_cast<double>(bucket.tokensNs) + refill;
        bucket.tokensNs = filled >=
                              static_cast<double>(config.clientBurstNs)
                          ? config.clientBurstNs
                          : static_cast<std::uint64_t>(filled);
    }
    bucket.lastRefillNs = now_ns;
    return bucket;
}

std::uint64_t
AdmissionController::estimateCostNs(WorkKind kind, std::uint64_t refs,
                                    std::uint64_t legs) const
{
    if (kind == WorkKind::Trivial)
        return 0;
    std::lock_guard<std::mutex> lock(mutex);
    const double cost = static_cast<double>(refs) *
                        static_cast<double>(legs) *
                        nsPerRefLeg[static_cast<std::size_t>(kind)];
    return cost <= 0.0 ? 0 : static_cast<std::uint64_t>(cost);
}

AdmissionDecision
AdmissionController::admit(const std::string &client_id, WorkKind kind,
                           std::uint64_t refs, std::uint64_t legs,
                           std::uint64_t now_ns)
{
    AdmissionDecision decision;
    if (!config.enabled || kind == WorkKind::Trivial)
        return decision;

    std::lock_guard<std::mutex> lock(mutex);
    const double estimate =
        static_cast<double>(refs) * static_cast<double>(legs) *
        nsPerRefLeg[static_cast<std::size_t>(kind)];
    decision.costNs =
        estimate <= 0.0 ? 0 : static_cast<std::uint64_t>(estimate);

    Bucket &bucket = bucketFor(client_id, now_ns);
    // Fairness charges at most one full burst: a request costlier than
    // the bucket can ever hold must still become affordable once the
    // bucket refills, or the client would starve forever.
    const std::uint64_t fairCharge =
        std::min(decision.costNs, config.clientBurstNs);
    if (bucket.tokensNs < fairCharge)
    {
        // Client is over its fair rate; its bucket refills at a known
        // rate, so the wait until affordable is exact.
        decision.admitted = false;
        decision.reason = "client-rate";
        const std::uint64_t missing = fairCharge - bucket.tokensNs;
        const double wait_ns =
            static_cast<double>(missing) /
            static_cast<double>(
                std::max<std::uint64_t>(config.clientRefillNsPerSec, 1)) *
            1e9;
        decision.retryAfterMs =
            clampRetryMs(static_cast<std::uint64_t>(wait_ns));
        ++tallies.shed;
        tallies.retryAfterMsTotal += decision.retryAfterMs;
        return decision;
    }

    if (outstanding > 0 &&
        outstanding + decision.costNs > config.costBudgetNs)
    {
        // Budget full. (A lone request is always admitted — outstanding
        // == 0 — so an oversized sweep cannot be starved forever.)
        decision.admitted = false;
        decision.reason = "budget";
        decision.retryAfterMs = clampRetryMs(
            outstanding + decision.costNs - config.costBudgetNs);
        ++tallies.shed;
        tallies.retryAfterMsTotal += decision.retryAfterMs;
        return decision;
    }

    bucket.tokensNs -= fairCharge;
    outstanding += decision.costNs;
    ++tallies.admitted;
    return decision;
}

void
AdmissionController::release(std::uint64_t cost_ns)
{
    std::lock_guard<std::mutex> lock(mutex);
    outstanding -= std::min(outstanding, cost_ns);
}

void
AdmissionController::recordServiced(WorkKind kind, std::uint64_t refs,
                                    std::uint64_t legs,
                                    std::uint64_t elapsed_ns)
{
    if (kind == WorkKind::Trivial)
        return;
    const double work = static_cast<double>(refs) *
                        static_cast<double>(legs);
    if (work <= 0.0)
        return;
    const double observed = static_cast<double>(elapsed_ns) / work;
    std::lock_guard<std::mutex> lock(mutex);
    double &rate = nsPerRefLeg[static_cast<std::size_t>(kind)];
    rate = rate * (1.0 - kEwmaAlpha) + observed * kEwmaAlpha;
}

std::uint32_t
AdmissionController::queueRetryAfterMs() const
{
    std::lock_guard<std::mutex> lock(mutex);
    // The queue drains as in-flight work completes; until then the
    // floor hint tells the client "soon, not now".
    return clampRetryMs(outstanding);
}

std::uint64_t
AdmissionController::outstandingNs() const
{
    std::lock_guard<std::mutex> lock(mutex);
    return outstanding;
}

AdmissionController::Counters
AdmissionController::counters() const
{
    std::lock_guard<std::mutex> lock(mutex);
    return tallies;
}

} // namespace server
} // namespace dynex

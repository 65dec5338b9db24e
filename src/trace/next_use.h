/**
 * @file
 * Next-use index: for every trace position, the position of the next
 * reference to the same cache block. This is the "future information"
 * that Belady-style optimal replacement consumes.
 */

#ifndef DYNEX_TRACE_NEXT_USE_H
#define DYNEX_TRACE_NEXT_USE_H

#include <cstdint>
#include <vector>

#include "trace/packed_view.h"
#include "trace/trace.h"
#include "util/types.h"

namespace dynex
{

/** Which future references count as a "use" of a block. */
enum class NextUseMode
{
    /** Any later reference to the block. */
    AnyReference,
    /**
     * Only later *run starts*: positions j where block(j) differs from
     * block(j-1). With a last-line buffer (or allocate-on-miss),
     * within-run references always hit, so run starts are the decision
     * points for line-grain replacement (Section 6 of the paper).
     */
    RunStart,
};

/**
 * Precomputed forward-reference distances at a given block granularity.
 *
 * nextUse(i) is the smallest j > i such that block(trace[j]) ==
 * block(trace[i]) (and, in RunStart mode, j starts a new run), or
 * kTickInfinity when the block is never referenced again. Built from a
 * PackedTraceView's dense ids in one backward pass over a flat array
 * of one upcoming position per distinct block: the view's pass is the
 * only block hash. Ticks are stored in 32 bits (the view holds fewer
 * than 2^32 references), with kNever for "never again".
 */
class NextUseIndex
{
  public:
    /** The stored tick of a block that is never referenced again. */
    static constexpr std::uint32_t kNever = ~std::uint32_t{0};

    /**
     * @param view the trace packed at the index's block granularity.
     * @param mode which references qualify as future uses.
     */
    explicit NextUseIndex(const PackedTraceView &view,
                          NextUseMode mode = NextUseMode::AnyReference);

    /**
     * Index @p trace at @p block_size granularity: packs a temporary
     * PackedTraceView and indexes its ids. Callers that also replay
     * through the kernel should build the view once and pass it.
     */
    NextUseIndex(const Trace &trace, std::uint64_t block_size,
                 NextUseMode mode = NextUseMode::AnyReference);

    /** @return the next qualifying position referencing trace[i]'s
     * block, or kTickInfinity. */
    Tick
    nextUse(Tick i) const
    {
        const std::uint32_t tick = next[i];
        return tick == kNever ? kTickInfinity : tick;
    }

    /** The stored 32-bit ticks (kNever for "never"), one per reference:
     * the kernel's optimal lane streams them directly. */
    const std::uint32_t *ticks() const { return next.data(); }

    /** The whole index as nextUse() values, for equivalence tests. */
    std::vector<Tick> values() const;

    std::uint64_t blockSize() const { return blockBytes; }
    NextUseMode mode() const { return useMode; }
    std::size_t size() const { return next.size(); }

    /** Resident bytes of the per-reference ticks. */
    std::uint64_t bytes() const { return next.size() * sizeof(next[0]); }

  private:
    std::vector<std::uint32_t> next;
    std::uint64_t blockBytes;
    NextUseMode useMode;
};

/**
 * Reference implementation of the backward pass on std::unordered_map
 * keyed by block number. Kept (only) as the oracle for equivalence
 * tests and as the baseline of the BM_NextUseBuild microbenchmarks;
 * simulation code should use NextUseIndex.
 */
std::vector<Tick> nextUseByMap(const Trace &trace,
                               std::uint64_t block_size,
                               NextUseMode mode);

} // namespace dynex

#endif // DYNEX_TRACE_NEXT_USE_H

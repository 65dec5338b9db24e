/**
 * @file
 * Packed structure-of-arrays trace view: the dense block-id array the
 * replay kernel streams instead of the 16-byte AoS MemRef records,
 * plus one set word per distinct block.
 *
 * The three sweep models (conventional, dynamic exclusion, optimal)
 * consume nothing of a reference but its block at the sweep's line
 * granularity: which set it maps to, and which block it is. The block
 * fixes the set, so a sweep that replays one trace through many
 * configurations only needs a 32-bit dense id per reference and, per
 * distinct block, the low 32 bits of its block number (every valid
 * set mask fits in them). With the RunStart NextUseIndex built from
 * the ids (4 bytes per reference) the whole replay artifact is 8 bytes
 * per reference plus 4 per distinct block. The dense id lets
 * per-block state (tags, dynamic exclusion's hit-last bits, next-use
 * chains) live in 32-bit lanes and flat arrays of one entry per
 * distinct block, however sparse the address space.
 *
 * A view is built by appending record blocks in trace order, so a
 * trace file can be packed block by block as TraceDecoder
 * (trace/trace_io.h) yields it, without ever holding the whole Trace;
 * the Trace constructor appends trace.records() as one block.
 */

#ifndef DYNEX_TRACE_PACKED_VIEW_H
#define DYNEX_TRACE_PACKED_VIEW_H

#include <cstdint>
#include <span>
#include <vector>

#include "trace/trace.h"
#include "util/types.h"

namespace dynex
{

/**
 * Dense block ids for one trace at one block granularity, and the set
 * word of each distinct block.
 *
 * With block(i) = trace[i].addr >> log2(block_bytes): ids()[i]
 * numbers block(i) among the trace's distinct blocks in order of first
 * appearance: ids()[i] == ids()[j] iff block(i) == block(j), and every
 * id is below distinctBlocks() (so ~0u is never an id).
 * blockSetWords()[ids()[i]] is the low 32 bits of block(i), so masking
 * it with (sets - 1) gives the reference's set for any set count up to
 * 2^32. Reference types and sizes are deliberately dropped: every
 * cache model in the sweep triad treats all reference kinds
 * identically, so the view is exact for them. Rebuild (one linear
 * pass) when the granularity changes, e.g. per point of a line-size
 * sweep.
 */
class PackedTraceView
{
  public:
    /**
     * An empty view at @p block_bytes: append() the trace's records in
     * order, then finish().
     * @param block_bytes power-of-two granularity in bytes.
     * @param expected_refs the trace length, when known: sizes the id
     *        array and the block hash up front.
     */
    explicit PackedTraceView(std::uint32_t block_bytes,
                             std::size_t expected_refs = 0);

    /** The finished view of all of @p trace.
     * @pre @p trace has fewer than 2^32 references. */
    PackedTraceView(const Trace &trace, std::uint32_t block_bytes);

    /** Pack the next @p refs of the trace.
     * @pre the view stays below 2^32 references, and finish() has not
     *      been called. */
    void append(std::span<const MemRef> refs);

    /** Release the block hash, which only append() needs. */
    void finish();

    const std::uint32_t *ids() const { return denseIds.data(); }
    /** One set word per distinct block, indexed by dense id. */
    const std::uint32_t *blockSetWords() const { return setWords.data(); }
    std::size_t size() const { return denseIds.size(); }
    std::size_t distinctBlocks() const { return setWords.size(); }
    std::uint32_t blockBytes() const { return blockBytesValue; }

    /** Resident bytes: 4 per reference and 4 per distinct block. */
    std::uint64_t
    bytes() const
    {
        return denseIds.size() * sizeof(denseIds[0]) +
               setWords.size() * sizeof(setWords[0]);
    }

  private:
    /** One block -> id entry of the open-addressing block hash. */
    struct Slot
    {
        Addr key;
        std::uint32_t id;
    };

    void resizeHash(std::size_t slots);

    std::vector<std::uint32_t> denseIds;
    std::vector<std::uint32_t> setWords;
    std::vector<Slot> slots;
    std::uint32_t sentinelId;
    unsigned indexShift = 0;
    std::uint32_t blockBytesValue;
    unsigned blockShift;
};

/**
 * Which blocks of a view are alone in their set, at every set count.
 *
 * sharedLowBits()[id] is the number of low set-word bits block id
 * shares with the nearest other distinct block of the view: 0 to 32,
 * 32 when another block agrees in all 32 (0 for the only block of a
 * one-block view). At 2^k sets a block is the only distinct block
 * mapping to its set iff k > sharedLowBits()[id], at every k, because
 * a set only ever splits as the set count doubles (a one-block view's
 * block is alone at one set too, but counts as shared there). Such a
 * private block's outcome is closed form in all three sweep models:
 * one cold fill, then hits (DE's Figure-1 arcs: ColdFill, then Hit).
 *
 * privateAt(k) sums the private blocks at 2^k sets, their references
 * and their run starts (references whose block differs from the
 * previous reference's), from three 33-bucket histograms over the
 * shared bit count. Built once per view: one sort of the distinct set
 * words, bit-reversed so that neighbours share the most low bits, and
 * one pass over the ids.
 */
class SetSharing
{
  public:
    /** Set counts are 2^0 to 2^32: one bucket per shared bit count. */
    static constexpr unsigned kBuckets = 33;

    /** Blocks, references and run starts of some set of blocks. */
    struct Tally
    {
        Count blocks = 0;
        Count refs = 0;
        Count runStarts = 0;
    };

    explicit SetSharing(const PackedTraceView &view);

    /** One count per distinct block, indexed by dense id, followed by
     * three zero bytes, so a 4-byte load at any id stays inside. */
    const std::uint8_t *sharedLowBits() const { return shared.data(); }

    /** The blocks alone in their set at 2^@p k sets, k <= 32. */
    const Tally &privateAt(unsigned k) const { return below[k]; }

    /** Every run start of the view, private or not. */
    Count runStarts() const { return below[kBuckets].runStarts; }

    /** Resident bytes: 1 per distinct block, the 3-byte tail and the
     * histograms. */
    std::uint64_t
    bytes() const
    {
        return shared.size() + sizeof(below);
    }

  private:
    std::vector<std::uint8_t> shared;
    /** below[k]: the blocks whose shared bit count is below k. */
    Tally below[kBuckets + 1];
};

} // namespace dynex

#endif // DYNEX_TRACE_PACKED_VIEW_H

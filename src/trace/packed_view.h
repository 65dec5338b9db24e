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
 * decoder can pack a trace file block by block without ever holding
 * the whole Trace (see TraceImageDecoder in trace/mmap_io.h); the
 * Trace constructor appends trace.records() as one block.
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

} // namespace dynex

#endif // DYNEX_TRACE_PACKED_VIEW_H

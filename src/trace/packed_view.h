/**
 * @file
 * Packed structure-of-arrays trace view: the precomputed set-word and
 * dense block-id arrays the replay kernel streams instead of the
 * 16-byte AoS MemRef records.
 *
 * The three sweep models (conventional, dynamic exclusion, optimal)
 * consume nothing of a reference but its block at the sweep's line
 * granularity: which set it maps to, and which block it is. So a
 * sweep that replays one trace through many configurations only needs
 * these 8 bytes per reference: the low 32 bits of the block number
 * (every valid set mask fits in them) and a 32-bit dense id. With the
 * RunStart NextUseIndex built from the ids (4 bytes per reference)
 * the whole replay artifact is 12 bytes per reference. Streaming it
 * instead of Trace::records() cuts the bytes pulled from DRAM per
 * pass, and precomputing the block shift removes the per-reference
 * address arithmetic from every model's hot loop. The dense id lets
 * per-block state (tags, dynamic exclusion's hit-last bits, next-use
 * chains) live in 32-bit lanes and flat arrays of one entry per
 * distinct block, however sparse the address space.
 */

#ifndef DYNEX_TRACE_PACKED_VIEW_H
#define DYNEX_TRACE_PACKED_VIEW_H

#include <cstdint>
#include <vector>

#include "trace/trace.h"
#include "util/types.h"

namespace dynex
{

/**
 * Flat arrays of set words and dense block ids for one trace at one
 * block granularity.
 *
 * With block(i) = trace[i].addr >> log2(block_bytes):
 * setWords()[i] is the low 32 bits of block(i), so setWords()[i] &
 * (sets - 1) is the reference's set for any set count up to 2^32.
 * ids()[i] numbers block(i) among the trace's distinct blocks in order
 * of first appearance: ids()[i] == ids()[j] iff block(i) == block(j),
 * and every id is below distinctBlocks() (so ~0u is never an id).
 * Reference types and sizes are deliberately dropped: every cache
 * model in the sweep triad treats all reference kinds identically, so
 * the view is exact for them. Rebuild (one linear pass) when the
 * granularity changes, e.g. per point of a line-size sweep.
 */
class PackedTraceView
{
  public:
    /**
     * @param block_bytes power-of-two granularity in bytes.
     * @pre @p trace has fewer than 2^32 references.
     */
    PackedTraceView(const Trace &trace, std::uint32_t block_bytes);

    const std::uint32_t *setWords() const { return setWordArray.data(); }
    const std::uint32_t *ids() const { return denseIds.data(); }
    std::size_t size() const { return denseIds.size(); }
    std::size_t distinctBlocks() const { return distinct; }
    std::uint32_t blockBytes() const { return blockBytesValue; }

    /** Resident bytes of the two per-reference arrays. */
    std::uint64_t
    bytes() const
    {
        return setWordArray.size() * sizeof(setWordArray[0]) +
               denseIds.size() * sizeof(denseIds[0]);
    }

  private:
    std::vector<std::uint32_t> setWordArray;
    std::vector<std::uint32_t> denseIds;
    std::size_t distinct = 0;
    std::uint32_t blockBytesValue;
};

} // namespace dynex

#endif // DYNEX_TRACE_PACKED_VIEW_H

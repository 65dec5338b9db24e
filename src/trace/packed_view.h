/**
 * @file
 * Packed structure-of-arrays trace view: the precomputed block-number
 * and dense block-id arrays the replay kernel streams instead of the
 * 16-byte AoS MemRef records.
 *
 * The three sweep models (conventional, dynamic exclusion, optimal)
 * consume nothing of a reference but its block number at the sweep's
 * line granularity, so a sweep that replays one trace through many
 * configurations only needs these 12 bytes per reference: an 8-byte
 * block number and a 4-byte dense id. Streaming them instead of
 * Trace::records() cuts the bytes pulled from DRAM per pass, and
 * precomputing the block shift removes the per-reference address
 * arithmetic from every model's hot loop. The dense id lets per-block
 * state (dynamic exclusion's hit-last bits) live in a flat array of
 * one entry per distinct block, however sparse the address space.
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
 * Flat arrays of block numbers and dense block ids for one trace at
 * one block granularity.
 *
 * blocks()[i] == trace[i].addr >> log2(block_bytes), for every i.
 * ids()[i] numbers blocks()[i] among the trace's distinct blocks in
 * order of first appearance: ids()[i] == ids()[j] iff blocks()[i] ==
 * blocks()[j], and every id is below distinctBlocks().
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

    const Addr *blocks() const { return blockNumbers.data(); }
    const std::uint32_t *ids() const { return denseIds.data(); }
    std::size_t size() const { return blockNumbers.size(); }
    std::size_t distinctBlocks() const { return distinct; }
    std::uint32_t blockBytes() const { return blockBytesValue; }

  private:
    std::vector<Addr> blockNumbers;
    std::vector<std::uint32_t> denseIds;
    std::size_t distinct = 0;
    std::uint32_t blockBytesValue;
};

} // namespace dynex

#endif // DYNEX_TRACE_PACKED_VIEW_H

/**
 * @file
 * Packed structure-of-arrays trace view: the precomputed block-number
 * array the replay kernel streams instead of the 16-byte AoS
 * MemRef records.
 *
 * The three sweep models (conventional, dynamic exclusion, optimal)
 * consume nothing of a reference but its block number at the sweep's
 * line granularity, so a sweep that replays one trace through many
 * configurations only needs this 8-byte-per-reference array. Streaming
 * it instead of Trace::records() halves the bytes pulled from DRAM per
 * pass, and precomputing the block shift removes the per-reference
 * address arithmetic from every model's hot loop.
 */

#ifndef DYNEX_TRACE_PACKED_VIEW_H
#define DYNEX_TRACE_PACKED_VIEW_H

#include <vector>

#include "trace/trace.h"
#include "util/types.h"

namespace dynex
{

/**
 * Flat array of block numbers for one trace at one block granularity.
 *
 * blocks()[i] == trace[i].addr >> log2(block_bytes), for every i.
 * Reference types and sizes are deliberately dropped: every cache
 * model in the sweep triad treats all reference kinds identically, so
 * the view is exact for them. Rebuild (one linear pass) when the
 * granularity changes, e.g. per point of a line-size sweep.
 */
class PackedTraceView
{
  public:
    /** @param block_bytes power-of-two granularity in bytes. */
    PackedTraceView(const Trace &trace, std::uint32_t block_bytes);

    const Addr *blocks() const { return blockIds.data(); }
    std::size_t size() const { return blockIds.size(); }
    std::uint32_t blockBytes() const { return blockBytesValue; }

  private:
    std::vector<Addr> blockIds;
    std::uint32_t blockBytesValue;
};

} // namespace dynex

#endif // DYNEX_TRACE_PACKED_VIEW_H

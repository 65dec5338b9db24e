/**
 * @file
 * Program execution: walks a Program's tree and emits a bounded
 * reference trace.
 */

#ifndef DYNEX_TRACEGEN_EXECUTOR_H
#define DYNEX_TRACEGEN_EXECUTOR_H

#include <cstdint>

#include "trace/trace.h"
#include "tracegen/program.h"
#include "util/rng.h"

namespace dynex
{

/**
 * Which references a walk keeps. The walk itself, and so every
 * random draw, is the same whatever is kept: a kept stream is exactly
 * the references of its kind in the All stream, in order.
 */
enum class RefKinds : std::uint8_t
{
    All,
    Instructions,
    Data,
};

/**
 * Mutable state threaded through a program walk: the output trace, the
 * reference budget, the random stream, and the call depth (to bound
 * recursion).
 */
class ExecContext
{
  public:
    /**
     * @param output sink trace.
     * @param budget maximum references to emit.
     * @param seed random stream seed.
     * @param keep which references reach @p output and count against
     *        @p budget; the others are walked and dropped.
     * @param max_call_depth recursion bound for Call nodes.
     */
    ExecContext(Trace &output, Count budget, std::uint64_t seed,
                RefKinds keep = RefKinds::All,
                std::uint32_t max_call_depth = 48);

    /** @return true once the budget is exhausted (callers unwind). */
    bool done() const { return emitted >= budgetRefs; }

    /** Emit one instruction fetch. */
    void emitInstr(Addr addr);

    /** Emit one data reference. */
    void emitLoad(Addr addr);
    void emitStore(Addr addr);

    Rng &rng() { return randomStream; }

    /** @return false if the call would exceed the depth bound. */
    bool enterCall();
    void leaveCall();

    Count emittedCount() const { return emitted; }

  private:
    void emit(const MemRef &ref);

    Trace *out;
    Count budgetRefs;
    RefKinds kept;
    Count emitted = 0;
    Rng randomStream;
    std::uint32_t callDepth = 0;
    std::uint32_t maxCallDepth;
};

/**
 * Execute @p program repeatedly from its entry function until exactly
 * @p num_refs references of the @p keep kinds have been emitted.
 *
 * The program's data patterns are reset first, so generation is a pure
 * function of (program construction, num_refs, seed, keep), and a
 * longer trace only extends a shorter one. A pass that keeps nothing
 * panics: the program never emits that kind.
 */
Trace generateTrace(Program &program, Count num_refs, std::uint64_t seed,
                    RefKinds keep = RefKinds::All);

/**
 * References emitted by one complete pass of the entry function —
 * the program's "phase cycle" length. Traces shorter than a few
 * passes cannot exhibit recurring cross-phase conflicts, so the
 * generators keep this small relative to the reference budgets
 * (checked by the suite tests).
 */
Count measurePassLength(Program &program, std::uint64_t seed,
                        Count cap = 100'000'000);

} // namespace dynex

#endif // DYNEX_TRACEGEN_EXECUTOR_H

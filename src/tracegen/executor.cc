#include "tracegen/executor.h"

#include "util/logging.h"

namespace dynex
{

ExecContext::ExecContext(Trace &output, Count budget, std::uint64_t seed,
                         RefKinds keep, std::uint32_t max_call_depth)
    : out(&output), budgetRefs(budget), kept(keep), randomStream(seed),
      maxCallDepth(max_call_depth)
{
}

void
ExecContext::emit(const MemRef &ref)
{
    if (done())
        return;
    if (kept != RefKinds::All &&
        isData(ref.type) != (kept == RefKinds::Data))
        return;
    out->append(ref);
    ++emitted;
}

void
ExecContext::emitInstr(Addr addr)
{
    emit(ifetch(addr));
}

void
ExecContext::emitLoad(Addr addr)
{
    emit(load(addr));
}

void
ExecContext::emitStore(Addr addr)
{
    emit(store(addr));
}

bool
ExecContext::enterCall()
{
    if (callDepth >= maxCallDepth)
        return false;
    ++callDepth;
    return true;
}

void
ExecContext::leaveCall()
{
    DYNEX_ASSERT(callDepth > 0, "leaveCall without enterCall");
    --callDepth;
}

Count
measurePassLength(Program &program, std::uint64_t seed, Count cap)
{
    DYNEX_ASSERT(program.entryFunction() != nullptr,
                 "program '", program.name(), "' has no entry function");
    program.resetPatterns();
    Trace scratch("pass");
    ExecContext ctx(scratch, cap, seed);
    program.entryFunction()->bodyNode()->execute(ctx);
    return ctx.emittedCount();
}

Trace
generateTrace(Program &program, Count num_refs, std::uint64_t seed,
              RefKinds keep)
{
    DYNEX_ASSERT(program.entryFunction() != nullptr,
                 "program '", program.name(), "' has no entry function");
    DYNEX_ASSERT(program.entryFunction()->bodyNode() != nullptr,
                 "entry function has no body");

    program.resetPatterns();
    Trace trace(program.name());
    trace.reserve(num_refs);
    ExecContext ctx(trace, num_refs, seed, keep);
    while (!ctx.done()) {
        const Count before = ctx.emittedCount();
        program.entryFunction()->bodyNode()->execute(ctx);
        DYNEX_ASSERT(ctx.emittedCount() > before,
                     "program '", program.name(),
                     "' emitted nothing to keep in a whole pass");
    }
    return trace;
}

} // namespace dynex

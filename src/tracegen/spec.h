/**
 * @file
 * The synthetic SPEC'89-like benchmark suite (Figure 2 of the paper).
 *
 * Each benchmark is a deterministic synthetic program whose loop
 * structure, call-graph shape, code footprint, and data-access
 * patterns model the qualitative character of the original SPEC
 * program (see DESIGN.md section 4 for the substitution rationale).
 * Traces are a pure function of (benchmark name, reference count).
 */

#ifndef DYNEX_TRACEGEN_SPEC_H
#define DYNEX_TRACEGEN_SPEC_H

#include <memory>
#include <string>
#include <vector>

#include "trace/trace.h"
#include "tracegen/executor.h"
#include "tracegen/program.h"

namespace dynex
{

/** Descriptor for one suite member. */
struct BenchmarkInfo
{
    std::string name;
    std::string description; ///< the paper's Figure 2 wording
};

/** The ten benchmarks, in the paper's order. */
const std::vector<BenchmarkInfo> &specSuite();

/** @return true iff @p name names a suite member. */
bool isSpecBenchmark(const std::string &name);

/**
 * Construct the synthetic program for @p name (panics on unknown
 * names; check with isSpecBenchmark first if needed).
 */
std::unique_ptr<Program> makeSpecProgram(const std::string &name);

/**
 * Generate the first @p num_refs references of @p name's reference
 * stream with the benchmark's canonical seed: the mixed
 * instruction+data stream, or only the @p keep kind of it.
 */
Trace makeSpecTrace(const std::string &name, Count num_refs,
                    RefKinds keep = RefKinds::All);

} // namespace dynex

#endif // DYNEX_TRACEGEN_SPEC_H

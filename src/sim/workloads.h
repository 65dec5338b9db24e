/**
 * @file
 * Workload access for experiments: generates suite traces on demand
 * and splits reference streams. Nothing is cached: every call
 * generates afresh, so a caller that replays one benchmark under many
 * configurations generates it once and holds the Trace itself.
 */

#ifndef DYNEX_SIM_WORKLOADS_H
#define DYNEX_SIM_WORKLOADS_H

#include <string>

#include "trace/trace.h"

namespace dynex
{

/**
 * Trace provider for the synthetic suite.
 *
 * The default reference count mirrors the paper's "first 10 million
 * references" methodology scaled for bench runtime; override with the
 * DYNEX_REFS environment variable.
 */
class Workloads
{
  public:
    /** The default per-benchmark reference budget (DYNEX_REFS or the
     * built-in default). */
    static Count defaultRefs();

    /** The benchmark's mixed instruction+data stream, @p refs long. */
    static Trace mixed(const std::string &name, Count refs);

    /** The first @p refs instruction fetches of the benchmark. */
    static Trace instructions(const std::string &name, Count refs);

    /** The first @p refs data references of the benchmark. */
    static Trace data(const std::string &name, Count refs);
};

} // namespace dynex

#endif // DYNEX_SIM_WORKLOADS_H

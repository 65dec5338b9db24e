/**
 * @file
 * Text trace interchange in the classic dinero "din" format, for
 * moving traces between this simulator and external tools:
 *
 *   <label> <hex-address>\n
 *
 * with label 0 = data read, 1 = data write, 2 = instruction fetch.
 * Lines starting with '#' and blank lines are ignored on input.
 * Access sizes are not representable in din; they default to 4 bytes.
 *
 * The reader is hardened against malformed text: unknown or
 * out-of-range labels, missing/malformed/overlong hex addresses all
 * yield a CorruptInput status naming the offending line.
 */

#ifndef DYNEX_TRACE_TEXT_IO_H
#define DYNEX_TRACE_TEXT_IO_H

#include <iosfwd>
#include <string>

#include "trace/trace.h"
#include "util/status.h"

namespace dynex
{

/** Serialize @p trace as din text. */
Status writeDinTrace(const Trace &trace, std::ostream &out);

/** Serialize to a file; an IoError carries the errno text. */
Status writeDinTraceFile(const Trace &trace, const std::string &path);

/**
 * Parse a din-format trace.
 * @param name name to give the resulting trace.
 * @return the trace, or a CorruptInput status that includes the
 *         offending line number.
 */
Result<Trace> readDinTrace(std::istream &in,
                           const std::string &name = "din");

/** Parse from a file; an IoError carries the errno text for open
 * failures. */
Result<Trace> readDinTraceFile(const std::string &path);

/** True when @p path ends in ".din" (any case): the one test of which
 * reader a trace file path selects. */
bool isDinPath(const std::string &path);

/** True when @p path ends in ".dxt3" (any case): the extension that
 * selects the compressed binary format for a written trace. */
bool isDxt3Path(const std::string &path);

/** Load the trace file at @p path: din text when isDinPath(path),
 * else a binary DXT1/DXT2/DXT3 file (readTraceFile). */
Result<Trace> readAnyTraceFile(const std::string &path);

} // namespace dynex

#endif // DYNEX_TRACE_TEXT_IO_H

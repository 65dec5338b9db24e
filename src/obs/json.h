/**
 * @file
 * The obs layer's text output, said once: the JSON string escaper and
 * number format every report, log line and trace file uses, and the
 * whole-file writer they are saved through.
 */

#ifndef DYNEX_OBS_JSON_H
#define DYNEX_OBS_JSON_H

#include <string>
#include <string_view>

#include "util/status.h"

namespace dynex
{
namespace obs
{

/** Append @p text to @p out as a quoted JSON string: `"`, `\`, `\n`,
 * `\r` and `\t` get their short escapes, other bytes below 0x20 become
 * `\u00XX`, and everything else (0x7f, UTF-8) passes through. */
void appendJsonString(std::string &out, std::string_view text);

/** Shortest round-trippable decimal (`%.17g`): the same double always
 * renders the same bytes, which byte-stable reports rest on. */
std::string jsonDouble(double value);

/** Write @p content to @p path, replacing any existing file. */
Status writeTextFile(const std::string &path,
                     const std::string &content);

} // namespace obs
} // namespace dynex

#endif // DYNEX_OBS_JSON_H

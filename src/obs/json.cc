#include "obs/json.h"

#include <cerrno>
#include <cstdio>
#include <cstring>
#include <fstream>

namespace dynex
{
namespace obs
{

void
appendJsonString(std::string &out, std::string_view text)
{
    out += '"';
    for (const char c : text) {
        switch (c) {
          case '"': out += "\\\""; break;
          case '\\': out += "\\\\"; break;
          case '\n': out += "\\n"; break;
          case '\r': out += "\\r"; break;
          case '\t': out += "\\t"; break;
          default:
            if (static_cast<unsigned char>(c) < 0x20) {
                char buf[8];
                std::snprintf(buf, sizeof(buf), "\\u%04x",
                              static_cast<unsigned>(
                                  static_cast<unsigned char>(c)));
                out += buf;
            } else {
                out += c;
            }
        }
    }
    out += '"';
}

std::string
jsonDouble(double value)
{
    char buf[40];
    std::snprintf(buf, sizeof(buf), "%.17g", value);
    return buf;
}

Status
writeTextFile(const std::string &path, const std::string &content)
{
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    if (!out)
        return Status::ioError("cannot open " + path + ": " +
                               std::strerror(errno));
    out.write(content.data(),
              static_cast<std::streamsize>(content.size()));
    out.flush();
    if (!out)
        return Status::ioError("cannot write " + path + ": " +
                               std::strerror(errno));
    return Status();
}

} // namespace obs
} // namespace dynex

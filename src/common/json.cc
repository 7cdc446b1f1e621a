#include "common/json.hh"

#include <charconv>
#include <cstdio>

namespace oenet {

std::string
jsonString(std::string_view s)
{
    std::string out;
    out.reserve(s.size() + 2);
    out += '"';
    for (char c : s) {
        switch (c) {
          case '"':
            out += "\\\"";
            break;
          case '\\':
            out += "\\\\";
            break;
          case '\n':
            out += "\\n";
            break;
          case '\r':
            out += "\\r";
            break;
          case '\t':
            out += "\\t";
            break;
          default:
            if (static_cast<unsigned char>(c) < 0x20) {
                char buf[8];
                std::snprintf(buf, sizeof(buf), "\\u%04x",
                              static_cast<unsigned>(c));
                out += buf;
            } else {
                out += c;
            }
        }
    }
    out += '"';
    return out;
}

char *
formatJsonNumber(char *first, char *last, double v)
{
    // The standard defines general format at precision 17 as "%.17g".
    return std::to_chars(first, last, v, std::chars_format::general, 17)
        .ptr;
}

std::string
jsonNumber(double v)
{
    char buf[kJsonNumberMax];
    return std::string(buf, formatJsonNumber(buf, buf + sizeof(buf), v));
}

} // namespace oenet

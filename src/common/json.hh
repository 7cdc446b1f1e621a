/**
 * @file
 * JSON text primitives shared by every writer that emits JSON — sweep
 * manifests, the sweep journal and both trace sinks — so they all
 * escape strings and print numbers the same way.
 */

#ifndef OENET_COMMON_JSON_HH
#define OENET_COMMON_JSON_HH

#include <cstddef>
#include <string>
#include <string_view>

namespace oenet {

/** @p s as a quoted JSON string: '"' and '\' are backslash-escaped,
 *  every byte below 0x20 is escaped (\n, \r and \t by name, the rest
 *  as \u00XX), and every other byte is copied verbatim. */
std::string jsonString(std::string_view s);

/** Room formatJsonNumber() needs; the longest "%.17g" form is 24
 *  chars ("-2.2250738585072014e-308"). */
inline constexpr std::size_t kJsonNumberMax = 32;

/** Write @p v into [first, last) as printf's "%.17g" in the C locale
 *  would: 17 significant digits, so every double round-trips and the
 *  bytes never depend on the run. Returns the end of the text. */
char *formatJsonNumber(char *first, char *last, double v);

/** formatJsonNumber() as a string. */
std::string jsonNumber(double v);

} // namespace oenet

#endif // OENET_COMMON_JSON_HH

/**
 * @file
 * Key/value parameter store.
 *
 * Every oenet binary is parameterized through a Config: a flat map from
 * dotted names ("policy.window_cycles") to string values, populated from
 * "key=value" command-line tokens and/or simple config files (one
 * key=value per line, '#' comments). Typed accessors convert on read and
 * fall back to defaults, recording which keys were touched so unknown
 * keys can be reported.
 */

#ifndef OENET_COMMON_CONFIG_HH
#define OENET_COMMON_CONFIG_HH

#include <map>
#include <set>
#include <string>
#include <vector>

namespace oenet {

class Config
{
  public:
    Config() = default;

    /** Set a key explicitly (overwrites). */
    void set(const std::string &key, const std::string &value);

    /** Parse a single "key=value" token. @return false on bad syntax. */
    bool parseToken(const std::string &token);

    /** Parse argv-style tokens; calls fatal() on malformed input. */
    void parseArgs(int argc, const char *const *argv);

    /** Load key=value lines from @p path; fatal() if unreadable. */
    void loadFile(const std::string &path);

    /** @return true if @p key was explicitly set. */
    bool has(const std::string &key) const;

    std::string getString(const std::string &key,
                          const std::string &def) const;
    long getInt(const std::string &key, long def) const;
    unsigned long getUint(const std::string &key, unsigned long def) const;
    double getDouble(const std::string &key, double def) const;
    bool getBool(const std::string &key, bool def) const;

    /** Keys that were set but never read through a getter. */
    std::vector<std::string> unusedKeys() const;

    /** fatal() naming every key in unusedKeys(). Call after the last
     *  getter, so a misspelled key stops the program instead of
     *  silently leaving its default in place. */
    void rejectUnusedKeys() const;

    /** All stored key/value pairs, sorted by key. */
    std::vector<std::pair<std::string, std::string>> items() const;

  private:
    std::map<std::string, std::string> values_;
    mutable std::set<std::string> used_;
};

} // namespace oenet

#endif // OENET_COMMON_CONFIG_HH

#include "common/config.hh"

#include <cstdlib>
#include <fstream>

#include "common/log.hh"

namespace oenet {

namespace {

std::string
trim(const std::string &s)
{
    size_t b = s.find_first_not_of(" \t\r\n");
    if (b == std::string::npos)
        return "";
    size_t e = s.find_last_not_of(" \t\r\n");
    return s.substr(b, e - b + 1);
}

} // namespace

void
Config::set(const std::string &key, const std::string &value)
{
    values_[key] = value;
}

bool
Config::parseToken(const std::string &token)
{
    size_t eq = token.find('=');
    if (eq == std::string::npos || eq == 0)
        return false;
    set(trim(token.substr(0, eq)), trim(token.substr(eq + 1)));
    return true;
}

void
Config::parseArgs(int argc, const char *const *argv)
{
    for (int i = 1; i < argc; i++) {
        std::string tok(argv[i]);
        if (tok.rfind("--config=", 0) == 0) {
            loadFile(tok.substr(9));
            continue;
        }
        if (!parseToken(tok))
            fatal("bad argument '%s', expected key=value", tok.c_str());
    }
}

void
Config::loadFile(const std::string &path)
{
    std::ifstream in(path);
    if (!in)
        fatal("cannot open config file '%s'", path.c_str());
    std::string line;
    int lineno = 0;
    while (std::getline(in, line)) {
        lineno++;
        size_t hash = line.find('#');
        if (hash != std::string::npos)
            line = line.substr(0, hash);
        line = trim(line);
        if (line.empty())
            continue;
        if (!parseToken(line))
            fatal("%s:%d: bad line '%s'", path.c_str(), lineno,
                  line.c_str());
    }
}

bool
Config::has(const std::string &key) const
{
    return values_.count(key) != 0;
}

std::string
Config::getString(const std::string &key, const std::string &def) const
{
    used_.insert(key);
    auto it = values_.find(key);
    return it == values_.end() ? def : it->second;
}

long
Config::getInt(const std::string &key, long def) const
{
    used_.insert(key);
    auto it = values_.find(key);
    if (it == values_.end())
        return def;
    char *end = nullptr;
    long v = std::strtol(it->second.c_str(), &end, 0);
    if (end == it->second.c_str() || *end != '\0')
        fatal("config key '%s': '%s' is not an integer", key.c_str(),
              it->second.c_str());
    return v;
}

unsigned long
Config::getUint(const std::string &key, unsigned long def) const
{
    used_.insert(key);
    auto it = values_.find(key);
    if (it == values_.end())
        return def;
    char *end = nullptr;
    unsigned long v = std::strtoul(it->second.c_str(), &end, 0);
    if (end == it->second.c_str() || *end != '\0')
        fatal("config key '%s': '%s' is not an unsigned integer",
              key.c_str(), it->second.c_str());
    return v;
}

double
Config::getDouble(const std::string &key, double def) const
{
    used_.insert(key);
    auto it = values_.find(key);
    if (it == values_.end())
        return def;
    char *end = nullptr;
    double v = std::strtod(it->second.c_str(), &end);
    if (end == it->second.c_str() || *end != '\0')
        fatal("config key '%s': '%s' is not a number", key.c_str(),
              it->second.c_str());
    return v;
}

bool
Config::getBool(const std::string &key, bool def) const
{
    used_.insert(key);
    auto it = values_.find(key);
    if (it == values_.end())
        return def;
    const std::string &v = it->second;
    if (v == "1" || v == "true" || v == "yes" || v == "on")
        return true;
    if (v == "0" || v == "false" || v == "no" || v == "off")
        return false;
    fatal("config key '%s': '%s' is not a boolean", key.c_str(), v.c_str());
}

std::vector<std::string>
Config::unusedKeys() const
{
    std::vector<std::string> out;
    for (const auto &kv : values_)
        if (!used_.count(kv.first))
            out.push_back(kv.first);
    return out;
}

void
Config::rejectUnusedKeys() const
{
    std::string names;
    for (const std::string &key : unusedKeys())
        names += (names.empty() ? "'" : ", '") + key + "'";
    if (!names.empty())
        fatal("unknown config key(s) %s: misspelled, or not used by "
              "this program",
              names.c_str());
}

std::vector<std::pair<std::string, std::string>>
Config::items() const
{
    return {values_.begin(), values_.end()};
}

} // namespace oenet

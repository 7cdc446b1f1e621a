#include "core/sweep_journal.hh"

#include <array>
#include <cerrno>
#include <charconv>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <iterator>
#include <type_traits>

#include <fcntl.h>
#include <unistd.h>

#include "common/json.hh"
#include "common/log.hh"
#include "common/proc.hh"

namespace oenet {

std::uint32_t
crc32(const void *data, std::size_t len)
{
    static const std::array<std::uint32_t, 256> table = [] {
        std::array<std::uint32_t, 256> t{};
        for (std::uint32_t i = 0; i < 256; ++i) {
            std::uint32_t c = i;
            for (int k = 0; k < 8; ++k)
                c = (c & 1u) ? (0xedb88320u ^ (c >> 1)) : (c >> 1);
            t[i] = c;
        }
        return t;
    }();

    std::uint32_t crc = 0xffffffffu;
    const auto *p = static_cast<const unsigned char *>(data);
    for (std::size_t i = 0; i < len; ++i)
        crc = table[(crc ^ p[i]) & 0xffu] ^ (crc >> 8);
    return crc ^ 0xffffffffu;
}

namespace {

/** Append a body's CRC wrap: {"r": <body>, "crc": "xxxxxxxx"}\n */
std::string
wrapLine(const std::string &body)
{
    char crcHex[16];
    std::snprintf(crcHex, sizeof(crcHex), "%08x",
                  crc32(body.data(), body.size()));
    std::string out;
    out.reserve(body.size() + 32);
    out += "{\"r\": ";
    out += body;
    out += ", \"crc\": \"";
    out += crcHex;
    out += "\"}\n";
    return out;
}

/** Validate @p line's wrap and CRC; on success extract the body. */
bool
unwrapLine(const std::string &line, std::string &body)
{
    // line includes its trailing newline.
    static const char kPrefix[] = "{\"r\": ";
    static const char kCrcMark[] = ", \"crc\": \"";
    constexpr std::size_t kPrefixLen = sizeof(kPrefix) - 1;   // 6
    constexpr std::size_t kCrcMarkLen = sizeof(kCrcMark) - 1; // 10
    constexpr std::size_t kSuffixLen = kCrcMarkLen + 8 + 2;   // ..."}

    if (line.empty() || line.back() != '\n')
        return false;
    const std::size_t len = line.size() - 1; // without the newline
    if (len < kPrefixLen + kSuffixLen + 2)
        return false;
    if (line.compare(0, kPrefixLen, kPrefix) != 0)
        return false;
    if (line.compare(len - 2, 2, "\"}") != 0)
        return false;
    const std::size_t markAt = len - kSuffixLen;
    if (line.compare(markAt, kCrcMarkLen, kCrcMark) != 0)
        return false;

    char hex[9];
    std::memcpy(hex, line.data() + markAt + kCrcMarkLen, 8);
    hex[8] = '\0';
    char *end = nullptr;
    const unsigned long stored = std::strtoul(hex, &end, 16);
    if (end != hex + 8)
        return false;

    body.assign(line, kPrefixLen, markAt - kPrefixLen);
    return crc32(body.data(), body.size()) ==
           static_cast<std::uint32_t>(stored);
}

/**
 * Strict sequential parser over a record body. The journal only ever
 * parses its own emission, so fields are matched literally, in order —
 * any deviation marks the line corrupt and ends the valid prefix.
 */
struct Parser
{
    const char *p;
    const char *end;
    bool ok = true;

    explicit Parser(const std::string &s)
        : p(s.data()), end(s.data() + s.size())
    {
    }

    bool lit(const char *s)
    {
        if (!ok)
            return false;
        const std::size_t n = std::strlen(s);
        if (static_cast<std::size_t>(end - p) < n ||
            std::memcmp(p, s, n) != 0) {
            ok = false;
            return false;
        }
        p += n;
        return true;
    }

    bool parseString(std::string &out)
    {
        out.clear();
        if (!lit("\""))
            return false;
        while (p < end && *p != '"') {
            char c = *p++;
            if (c == '\\') {
                if (p >= end) {
                    ok = false;
                    return false;
                }
                char e = *p++;
                switch (e) {
                  case '"':
                    out += '"';
                    break;
                  case '\\':
                    out += '\\';
                    break;
                  case 'n':
                    out += '\n';
                    break;
                  case 't':
                    out += '\t';
                    break;
                  case 'r':
                    out += '\r';
                    break;
                  case 'u': {
                    // jsonString() spells the other control bytes
                    // \u00XX.
                    unsigned code = 0;
                    if (end - p < 4 ||
                        std::from_chars(p, p + 4, code, 16).ptr != p + 4 ||
                        code >= 0x20) {
                        ok = false;
                        return false;
                    }
                    out += static_cast<char>(code);
                    p += 4;
                    break;
                  }
                  default:
                    ok = false;
                    return false;
                }
            } else {
                out += c;
            }
        }
        return lit("\"");
    }

    bool parseUint(std::uint64_t &out)
    {
        if (!ok)
            return false;
        char *stop = nullptr;
        errno = 0;
        // The backing buffer is a std::string: NUL-terminated, and
        // strtoull stops at the first non-digit well before it.
        out = std::strtoull(p, &stop, 10);
        if (stop == p || stop > end || errno == ERANGE) {
            ok = false;
            return false;
        }
        p = stop;
        return true;
    }

    bool parseInt(long long &out)
    {
        if (!ok)
            return false;
        char *stop = nullptr;
        errno = 0;
        out = std::strtoll(p, &stop, 10);
        if (stop == p || stop > end || errno == ERANGE) {
            ok = false;
            return false;
        }
        p = stop;
        return true;
    }

    bool parseDouble(double &out)
    {
        if (!ok)
            return false;
        char *stop = nullptr;
        errno = 0;
        out = std::strtod(p, &stop);
        if (stop == p || stop > end) {
            ok = false;
            return false;
        }
        p = stop;
        return true;
    }

    bool parseBool(bool &out)
    {
        if (!ok)
            return false;
        if (static_cast<std::size_t>(end - p) >= 4 &&
            std::memcmp(p, "true", 4) == 0) {
            out = true;
            p += 4;
            return true;
        }
        if (static_cast<std::size_t>(end - p) >= 5 &&
            std::memcmp(p, "false", 5) == 0) {
            out = false;
            p += 5;
            return true;
        }
        ok = false;
        return false;
    }

    bool done() const { return ok && p == end; }
};

/** Serialize RunMetrics fields as a comma-joined key list. */
struct MetricsWriter
{
    std::string &out;
    bool first = true;

    template <typename T>
    void operator()(const char *name, const T &value)
    {
        if (!first)
            out += ", ";
        first = false;
        out += '"';
        out += name;
        out += "\": ";
        if constexpr (std::is_same_v<T, bool>) {
            out += value ? "true" : "false";
        } else if constexpr (std::is_floating_point_v<T>) {
            out += jsonNumber(value);
        } else {
            // Integers stay decimal tokens: a uint64 seed or counter
            // above 2^53 would lose bits through a double.
            out += std::to_string(value);
        }
    }
};

/** Parse RunMetrics fields back, type-faithfully, in emission order. */
struct MetricsParser
{
    Parser &ps;
    bool first = true;

    template <typename T>
    void operator()(const char *name, T &value)
    {
        if (!ps.ok)
            return;
        if (!first)
            ps.lit(", ");
        first = false;
        ps.lit("\"");
        ps.lit(name);
        ps.lit("\": ");
        if constexpr (std::is_same_v<T, bool>) {
            ps.parseBool(value);
        } else if constexpr (std::is_floating_point_v<T>) {
            double d = 0.0;
            if (ps.parseDouble(d))
                value = d;
        } else if constexpr (std::is_signed_v<T>) {
            long long i = 0;
            if (ps.parseInt(i))
                value = static_cast<T>(i);
        } else {
            std::uint64_t u = 0;
            if (ps.parseUint(u))
                value = static_cast<T>(u);
        }
    }
};

bool
parseHeaderBody(const std::string &body, SweepJournal::Header &header)
{
    Parser ps(body);
    ps.lit("{\"journal\": \"oenet-sweep\", \"v\": 1, \"base_seed\": ");
    ps.parseUint(header.baseSeed);
    ps.lit(", \"points\": ");
    ps.parseUint(header.points);
    ps.lit("}");
    return ps.done();
}

bool
parseRecordBody(const std::string &body, SweepOutcome &out)
{
    Parser ps(body);
    std::uint64_t index = 0;
    ps.lit("{\"index\": ");
    ps.parseUint(index);
    ps.lit(", \"label\": ");
    ps.parseString(out.label);
    ps.lit(", \"seed\": ");
    ps.parseUint(out.seed);
    ps.lit(", \"status\": ");
    std::string status;
    ps.parseString(status);
    ps.lit(", \"attempts\": ");
    long long attempts = 0;
    ps.parseInt(attempts);
    ps.lit(", \"error\": ");
    ps.parseString(out.error);
    ps.lit(", \"wall_ms\": ");
    ps.parseDouble(out.wallMs);
    ps.lit(", \"metrics\": {");
    MetricsParser mp{ps};
    forEachRunMetricsField(out.metrics, mp);
    ps.lit("}}");
    if (!ps.done())
        return false;

    out.index = static_cast<std::size_t>(index);
    out.attempts = static_cast<int>(attempts);
    if (status == pointStatusName(PointStatus::kOk))
        out.status = PointStatus::kOk;
    else if (status == pointStatusName(PointStatus::kFailed))
        out.status = PointStatus::kFailed;
    else
        return false;
    return true;
}

} // namespace

std::string
SweepJournal::headerLine(const Header &header)
{
    std::string body = "{\"journal\": \"oenet-sweep\", \"v\": 1, "
                       "\"base_seed\": " +
                       std::to_string(header.baseSeed) +
                       ", \"points\": " + std::to_string(header.points) +
                       "}";
    return wrapLine(body);
}

std::string
SweepJournal::recordLine(const SweepOutcome &outcome)
{
    std::string body;
    body.reserve(1024);
    body += "{\"index\": " + std::to_string(outcome.index);
    body += ", \"label\": " + jsonString(outcome.label);
    body += ", \"seed\": " + std::to_string(outcome.seed);
    body += ", \"status\": \"";
    body += pointStatusName(outcome.status);
    body += "\"";
    body += ", \"attempts\": " + std::to_string(outcome.attempts);
    body += ", \"error\": " + jsonString(outcome.error);
    body += ", \"wall_ms\": " + jsonNumber(outcome.wallMs);
    body += ", \"metrics\": {";
    MetricsWriter writer{body};
    forEachRunMetricsField(outcome.metrics, writer);
    body += "}}";
    return wrapLine(body);
}

SweepJournal::Loaded
SweepJournal::load(const std::string &path)
{
    Loaded out;
    std::ifstream in(path, std::ios::binary);
    if (!in)
        return out;
    out.exists = true;

    std::string data((std::istreambuf_iterator<char>(in)),
                     std::istreambuf_iterator<char>());
    std::size_t pos = 0;
    bool first = true;
    while (pos < data.size()) {
        const std::size_t nl = data.find('\n', pos);
        if (nl == std::string::npos)
            break; // torn tail: no newline, cannot be valid
        const std::string line = data.substr(pos, nl - pos + 1);

        std::string body;
        if (!unwrapLine(line, body))
            break;
        if (first) {
            Header header;
            if (!parseHeaderBody(body, header))
                break;
            out.hasHeader = true;
            out.header = header;
        } else {
            SweepOutcome outcome;
            if (!parseRecordBody(body, outcome))
                break;
            out.outcomes.push_back(std::move(outcome));
        }
        first = false;
        pos = nl + 1;
        out.validBytes = pos;
    }

    // Everything past the valid prefix counts as dropped lines.
    if (pos < data.size()) {
        for (std::size_t i = pos; i < data.size(); ++i)
            if (data[i] == '\n')
                ++out.droppedLines;
        if (data.back() != '\n')
            ++out.droppedLines;
    }
    return out;
}

SweepJournal::~SweepJournal()
{
    close();
}

void
SweepJournal::open(const std::string &path, const Header &header,
                   std::size_t keep_bytes)
{
    close();
    fd_ = ::open(path.c_str(), O_WRONLY | O_CREAT, 0644);
    if (fd_ < 0) {
        fatal("sweep journal: cannot open '%s': %s", path.c_str(),
              std::strerror(errno));
    }
    if (::ftruncate(fd_, static_cast<off_t>(keep_bytes)) != 0) {
        fatal("sweep journal: cannot truncate '%s' to %zu bytes: %s",
              path.c_str(), keep_bytes, std::strerror(errno));
    }
    if (::lseek(fd_, 0, SEEK_END) < 0) {
        fatal("sweep journal: cannot seek '%s': %s", path.c_str(),
              std::strerror(errno));
    }
    path_ = path;
    if (keep_bytes == 0) {
        const std::string line = headerLine(header);
        if (!writeAll(fd_, line.data(), line.size()) ||
            ::fsync(fd_) != 0) {
            fatal("sweep journal: cannot write header to '%s': %s",
                  path.c_str(), std::strerror(errno));
        }
    }
}

void
SweepJournal::append(const SweepOutcome &outcome)
{
    if (fd_ < 0)
        return;
    const std::string line = recordLine(outcome);
    if (!writeAll(fd_, line.data(), line.size()) || ::fsync(fd_) != 0) {
        fatal("sweep journal: cannot append to '%s': %s", path_.c_str(),
              std::strerror(errno));
    }
}

void
SweepJournal::close()
{
    if (fd_ >= 0) {
        ::close(fd_);
        fd_ = -1;
    }
}

} // namespace oenet

#include "trace/trace_sinks.hh"

#include <charconv>
#include <concepts>
#include <cstdio>
#include <cstring>
#include <string_view>

#include "common/fs.hh"
#include "common/json.hh"
#include "common/log.hh"

namespace oenet {

namespace {

std::string
u64(std::uint64_t v)
{
    return std::to_string(v);
}

/**
 * One JSONL line, formatted into a fixed stack buffer and handed to the
 * stream in a single write (end()). Integers go through std::to_chars
 * in plain decimal, as ostream inserts them, and doubles through
 * formatJsonNumber(), the "%.17g" form every JSON writer shares. A
 * line longer than the buffer (only power snapshots with many VCs can
 * be) is written in pieces.
 */
class JsonlLine
{
  public:
    explicit JsonlLine(std::ostream &os) : os_(os) {}

    JsonlLine &operator<<(std::string_view text)
    {
        if (text.size() > kCap) {
            flush();
            os_.write(text.data(), static_cast<std::streamsize>(text.size()));
            return *this;
        }
        room(text.size());
        std::memcpy(buf_ + len_, text.data(), text.size());
        len_ += text.size();
        return *this;
    }

    JsonlLine &operator<<(const char *text)
    {
        return *this << std::string_view(text);
    }

    JsonlLine &operator<<(double v)
    {
        room(kNumberMax);
        char *end = formatJsonNumber(buf_ + len_, buf_ + kCap, v);
        len_ = static_cast<std::size_t>(end - buf_);
        return *this;
    }

    template <std::integral T>
    JsonlLine &operator<<(T v)
    {
        room(kNumberMax);
        char *end = std::to_chars(buf_ + len_, buf_ + kCap, v).ptr;
        len_ = static_cast<std::size_t>(end - buf_);
        return *this;
    }

    /** Terminate the line and write it. */
    void end()
    {
        room(1);
        buf_[len_++] = '\n';
        flush();
    }

  private:
    // Room for a double (kJsonNumberMax) or a 64-bit integer (20).
    static constexpr std::size_t kNumberMax = kJsonNumberMax;
    static constexpr std::size_t kCap = 1024;

    void room(std::size_t n)
    {
        if (kCap - len_ < n)
            flush();
    }

    void flush()
    {
        os_.write(buf_, static_cast<std::streamsize>(len_));
        len_ = 0;
    }

    std::ostream &os_;
    char buf_[kCap];
    std::size_t len_ = 0;
};

/** Close a file-backed sink's stream and rename its temp file into
 *  place; no-op for stream-backed sinks. */
void
publishTrace(std::ofstream &owned, const std::string &final_path,
             const char *what)
{
    if (final_path.empty())
        return;
    owned.flush();
    bool streamOk = owned.good();
    owned.close();
    if (!streamOk) {
        fatal("%s: write to '%s' failed", what,
              atomicTempPath(final_path).c_str());
    }
    std::string error;
    if (!atomicPublishFile(atomicTempPath(final_path), final_path,
                           &error)) {
        fatal("%s: publish of '%s': %s", what, final_path.c_str(),
              error.c_str());
    }
}

} // namespace

const char *
traceFormatName(TraceFormat format)
{
    switch (format) {
      case TraceFormat::kJsonl:
        return "jsonl";
      case TraceFormat::kChrome:
        return "chrome";
    }
    panic("traceFormatName: bad format");
}

TraceFormat
parseTraceFormat(const std::string &name)
{
    if (name == "jsonl")
        return TraceFormat::kJsonl;
    if (name == "chrome")
        return TraceFormat::kChrome;
    fatal("unknown trace format '%s' (expected jsonl or chrome)",
          name.c_str());
}

// ---------------------------------------------------------------------
// JsonlTraceSink
// ---------------------------------------------------------------------

JsonlTraceSink::JsonlTraceSink(const std::string &path)
    : finalPath_(path),
      owned_(atomicTempPath(path), std::ios::binary | std::ios::trunc),
      os_(owned_)
{
    if (!owned_) {
        fatal("JsonlTraceSink: cannot open '%s'",
              atomicTempPath(path).c_str());
    }
}

JsonlTraceSink::JsonlTraceSink(std::ostream &os) : os_(os)
{
}

JsonlTraceSink::~JsonlTraceSink()
{
    publishTrace(owned_, finalPath_, "JsonlTraceSink");
}

void
JsonlTraceSink::beginRun(const std::vector<TraceLinkInfo> &links)
{
    (JsonlLine(os_) << "{\"type\": \"run_begin\", \"links\": "
                    << links.size() << "}")
        .end();
    for (const TraceLinkInfo &l : links) {
        (JsonlLine(os_) << "{\"type\": \"link\", \"id\": " << l.id
                        << ", \"name\": " << jsonString(l.name)
                        << ", \"kind\": \"" << l.kind << "\"}")
            .end();
    }
}

void
JsonlTraceSink::linkTransition(const LinkTransitionEvent &e)
{
    (JsonlLine(os_) << "{\"type\": \"transition\", \"at\": "
                    << e.completedAt << ", \"start\": " << e.startedAt
                    << ", \"link\": " << e.linkId
                    << ", \"from\": " << e.fromLevel
                    << ", \"to\": " << e.toLevel << ", \"latency\": "
                    << e.completedAt - e.startedAt << ", \"kind\": \""
                    << e.type << "\"}")
        .end();
}

void
JsonlTraceSink::dvsDecision(const DvsDecisionEvent &e)
{
    (JsonlLine(os_) << "{\"type\": \"dvs\", \"at\": " << e.at
                    << ", \"link\": " << e.linkId << ", \"lu\": " << e.lu
                    << ", \"avg_lu\": " << e.avgLu << ", \"bu\": " << e.bu
                    << ", \"th_low\": " << e.thLow
                    << ", \"th_high\": " << e.thHigh
                    << ", \"decision\": \"" << e.decision
                    << "\", \"level\": " << e.level
                    << ", \"backlog_escalated\": "
                    << (e.backlogEscalated ? 1 : 0)
                    << ", \"downgrade_vetoed\": "
                    << (e.downgradeVetoed ? 1 : 0) << "}")
        .end();
}

void
JsonlTraceSink::laserEvent(const LaserTraceEvent &e)
{
    (JsonlLine(os_) << "{\"type\": \"laser\", \"at\": " << e.at
                    << ", \"link\": " << e.linkId << ", \"action\": \""
                    << e.action << "\", \"from\": " << e.fromLevel
                    << ", \"to\": " << e.toLevel << "}")
        .end();
}

void
JsonlTraceSink::packetRetire(const PacketRetireEvent &e)
{
    (JsonlLine(os_) << "{\"type\": \"packet\", \"at\": " << e.at
                    << ", \"id\": " << e.packet << ", \"src\": " << e.src
                    << ", \"dst\": " << e.dst
                    << ", \"created\": " << e.createdAt
                    << ", \"latency\": " << e.latency
                    << ", \"len\": " << e.lenFlits << "}")
        .end();
}

void
JsonlTraceSink::faultEvent(const FaultEvent &e)
{
    (JsonlLine(os_) << "{\"type\": \"fault\", \"at\": " << e.at
                    << ", \"link\": " << e.linkId << ", \"kind\": \""
                    << e.kind << "\", \"attempts\": " << e.attempts
                    << ", \"aux\": " << e.aux << "}")
        .end();
}

void
JsonlTraceSink::powerSnapshot(const PowerSnapshotEvent &e)
{
    JsonlLine line(os_);
    line << "{\"type\": \"power\", \"at\": " << e.at
         << ", \"total_mw\": " << e.totalPowerMw
         << ", \"baseline_mw\": " << e.baselinePowerMw
         << ", \"normalized\": " << e.normalizedPower << ", \"kinds\": [";
    for (int k = 0; k < e.numKinds; k++) {
        const auto &kr = e.kinds[k];
        if (k > 0)
            line << ", ";
        line << "{\"kind\": \"" << kr.kind << "\", \"count\": " << kr.count
             << ", \"power_mw\": " << kr.powerMw
             << ", \"baseline_mw\": " << kr.baselineMw
             << ", \"mean_level\": " << kr.meanLevel
             << ", \"flits\": " << kr.totalFlits << "}";
    }
    line << "]";
    if (e.hasThermal) {
        // Appended only when the thermal model is on, so leakage-off
        // traces stay byte-identical to the pre-thermal format.
        line << ", \"leakage_mw\": " << e.leakagePowerMw
             << ", \"max_temp_c\": " << e.maxTempC
             << ", \"vc_energy_mwc\": [";
        for (std::size_t v = 0; v < e.vcEnergyMwCycles.size(); v++) {
            if (v > 0)
                line << ", ";
            line << e.vcEnergyMwCycles[v];
        }
        line << "]";
    }
    line << "}";
    line.end();
}

void
JsonlTraceSink::endRun(Cycle at)
{
    (JsonlLine(os_) << "{\"type\": \"run_end\", \"at\": " << at << "}").end();
    os_.flush();
}

// ---------------------------------------------------------------------
// ChromeTraceSink
// ---------------------------------------------------------------------
//
// Layout: pid 0 holds one thread per link (transitions as "X" slices,
// decisions and laser events as instants); pid 1 holds packet-latency
// slices, one thread per source node; pid 2 holds the counter tracks
// from the periodic power snapshots.

ChromeTraceSink::ChromeTraceSink(const std::string &path)
    : finalPath_(path),
      owned_(atomicTempPath(path), std::ios::binary | std::ios::trunc),
      os_(owned_)
{
    if (!owned_) {
        fatal("ChromeTraceSink: cannot open '%s'",
              atomicTempPath(path).c_str());
    }
}

ChromeTraceSink::ChromeTraceSink(std::ostream &os) : os_(os)
{
}

ChromeTraceSink::~ChromeTraceSink()
{
    if (!closed_)
        endRun(0);
    publishTrace(owned_, finalPath_, "ChromeTraceSink");
}

void
ChromeTraceSink::open(const char *name, const char *cat, const char *ph,
                      Cycle ts, int pid, int tid)
{
    os_ << (first_ ? "\n" : ",\n");
    first_ = false;
    os_ << "{\"name\": \"" << name << "\", \"cat\": \"" << cat
        << "\", \"ph\": \"" << ph << "\", \"ts\": " << u64(ts)
        << ", \"pid\": " << pid << ", \"tid\": " << tid;
}

void
ChromeTraceSink::beginRun(const std::vector<TraceLinkInfo> &links)
{
    begun_ = true;
    os_ << "{\"displayTimeUnit\": \"ms\", \"traceEvents\": [";
    os_ << "\n{\"name\": \"process_name\", \"ph\": \"M\", \"pid\": 0, "
           "\"tid\": 0, \"args\": {\"name\": \"links\"}}";
    os_ << ",\n{\"name\": \"process_name\", \"ph\": \"M\", \"pid\": 1, "
           "\"tid\": 0, \"args\": {\"name\": \"packets\"}}";
    os_ << ",\n{\"name\": \"process_name\", \"ph\": \"M\", \"pid\": 2, "
           "\"tid\": 0, \"args\": {\"name\": \"metrics\"}}";
    first_ = false;
    for (const TraceLinkInfo &l : links) {
        os_ << ",\n{\"name\": \"thread_name\", \"ph\": \"M\", \"pid\": "
               "0, \"tid\": "
            << l.id << ", \"args\": {\"name\": " << jsonString(l.name)
            << "}}";
    }
}

void
ChromeTraceSink::linkTransition(const LinkTransitionEvent &e)
{
    char name[48];
    std::snprintf(name, sizeof(name), "L%d->L%d", e.fromLevel,
                  e.toLevel);
    open(name, "transition", "X", e.startedAt, 0, e.linkId);
    os_ << ", \"dur\": " << u64(e.completedAt - e.startedAt)
        << ", \"args\": {\"from\": " << e.fromLevel
        << ", \"to\": " << e.toLevel << ", \"kind\": \"" << e.type
        << "\"}}";
}

void
ChromeTraceSink::dvsDecision(const DvsDecisionEvent &e)
{
    open(e.decision, "dvs", "i", e.at, 0, e.linkId);
    os_ << ", \"s\": \"t\", \"args\": {\"lu\": " << jsonNumber(e.lu)
        << ", \"avg_lu\": " << jsonNumber(e.avgLu)
        << ", \"bu\": " << jsonNumber(e.bu)
        << ", \"th_low\": " << jsonNumber(e.thLow)
        << ", \"th_high\": " << jsonNumber(e.thHigh)
        << ", \"level\": " << e.level
        << ", \"backlog_escalated\": " << (e.backlogEscalated ? 1 : 0)
        << ", \"downgrade_vetoed\": " << (e.downgradeVetoed ? 1 : 0)
        << "}}";
}

void
ChromeTraceSink::laserEvent(const LaserTraceEvent &e)
{
    char name[48];
    std::snprintf(name, sizeof(name), "laser:%s", e.action);
    open(name, "laser", "i", e.at, 0, e.linkId);
    os_ << ", \"s\": \"t\", \"args\": {\"from\": " << e.fromLevel
        << ", \"to\": " << e.toLevel << "}}";
}

void
ChromeTraceSink::packetRetire(const PacketRetireEvent &e)
{
    open("pkt", "packet", "X", e.createdAt, 1,
         static_cast<int>(e.src));
    os_ << ", \"dur\": " << u64(e.latency)
        << ", \"args\": {\"id\": " << u64(e.packet)
        << ", \"dst\": " << e.dst << ", \"len\": " << e.lenFlits
        << "}}";
}

void
ChromeTraceSink::faultEvent(const FaultEvent &e)
{
    char name[48];
    std::snprintf(name, sizeof(name), "fault:%s", e.kind);
    open(name, "fault", "i", e.at, 0, e.linkId);
    os_ << ", \"s\": \"t\", \"args\": {\"attempts\": " << e.attempts
        << ", \"aux\": " << jsonNumber(e.aux) << "}}";
}

void
ChromeTraceSink::powerSnapshot(const PowerSnapshotEvent &e)
{
    open("power_mw", "power", "C", e.at, 2, 0);
    os_ << ", \"args\": {";
    for (int k = 0; k < e.numKinds; k++) {
        if (k > 0)
            os_ << ", ";
        os_ << "\"" << e.kinds[k].kind
            << "\": " << jsonNumber(e.kinds[k].powerMw);
    }
    os_ << "}}";
    open("normalized_power", "power", "C", e.at, 2, 0);
    os_ << ", \"args\": {\"value\": " << jsonNumber(e.normalizedPower)
        << "}}";
    open("mean_level", "power", "C", e.at, 2, 0);
    os_ << ", \"args\": {";
    for (int k = 0; k < e.numKinds; k++) {
        if (k > 0)
            os_ << ", ";
        os_ << "\"" << e.kinds[k].kind
            << "\": " << jsonNumber(e.kinds[k].meanLevel);
    }
    os_ << "}}";
}

void
ChromeTraceSink::endRun(Cycle at)
{
    if (closed_)
        return;
    if (!begun_) {
        // Never attached to a run: emit an empty but valid trace.
        os_ << "{\"displayTimeUnit\": \"ms\", \"traceEvents\": []}\n";
        os_.flush();
        closed_ = true;
        return;
    }
    open("run_end", "meta", "i", at, 2, 0);
    os_ << ", \"s\": \"g\"}";
    os_ << "\n]}\n";
    os_.flush();
    closed_ = true;
}

// ---------------------------------------------------------------------

std::unique_ptr<TraceSink>
makeTraceSink(const std::string &path, TraceFormat format)
{
    switch (format) {
      case TraceFormat::kJsonl:
        return std::make_unique<JsonlTraceSink>(path);
      case TraceFormat::kChrome:
        return std::make_unique<ChromeTraceSink>(path);
    }
    panic("makeTraceSink: bad format");
}

} // namespace oenet

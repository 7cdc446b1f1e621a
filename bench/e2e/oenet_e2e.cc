/**
 * @file
 * oenet_e2e — the end-to-end benchmark program. One named workload per
 * process (so peak RSS is per workload), inputs generated from --seed,
 * one JSON record on the last line of stdout.
 *
 * A workload is a *pass*: a fixed set of simulations run through the
 * public entry point a user would call (runTimelines, runExperiment, or
 * SweepRunner::run). The program first builds the pass's inputs and
 * systems several times (the set-up measurement), then repeats the pass
 * on identical inputs until --seconds of host time are used, and
 * reports medians. Repeating identical inputs doubles as a determinism
 * check: every pass must produce the same fingerprint.
 *
 * With --layers OUT.json the program alternates the untraced pass with a
 * *traced* pass that re-drives the same protocol through PoeSystem's
 * public methods, timing every call from outside (the constructor,
 * setTraffic, run in 1000-cycle windows, start/stopMeasurement,
 * awaitDrain, metrics, plus makePowerReport and
 * Network::totalPowerIntegralMwCycles at window edges) and reading the
 * public counters between calls. Spans stay in memory and are written
 * at exit as Chrome trace-event JSON. The traced pass must reproduce
 * the untraced fingerprint bit for bit; the record then carries the
 * per-layer metrics instead of the end-to-end ones.
 *
 * Host time only: every number here is what the simulator took on the
 * machine named in the record's context, not simulated time. See
 * README.md beside this file for the workload and metric tables.
 */

#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <memory>
#include <streambuf>
#include <string>
#include <thread>
#include <type_traits>
#include <vector>

#include "common/log.hh"
#include "common/parallel.hh"
#include "common/rng.hh"
#include "core/sweep_journal.hh"
#include "core/sweep_runner.hh"
#include "network/power_report.hh"
#include "trace/trace_sinks.hh"

#ifndef OENET_E2E_BUILD_TYPE
#define OENET_E2E_BUILD_TYPE "unknown"
#endif

using namespace oenet;

namespace {

using Clock = std::chrono::steady_clock;

double
secondsSince(Clock::time_point t0)
{
    return std::chrono::duration<double>(Clock::now() - t0).count();
}

/** Linear-interpolated quantile, q in [0, 1]; 0 for no samples. */
double
quantile(std::vector<double> v, double q)
{
    if (v.empty())
        return 0.0;
    std::sort(v.begin(), v.end());
    double pos = q * static_cast<double>(v.size() - 1);
    std::size_t lo = static_cast<std::size_t>(pos);
    std::size_t hi = std::min(lo + 1, v.size() - 1);
    return v[lo] + (pos - static_cast<double>(lo)) * (v[hi] - v[lo]);
}

double
median(std::vector<double> v)
{
    return quantile(std::move(v), 0.5);
}

// ---------------------------------------------------------------------
// Fingerprint: FNV-1a over every simulated output, numbers as %.17g.
// ---------------------------------------------------------------------

class Fnv1a
{
  public:
    void bytes(const char *data, std::size_t n)
    {
        for (std::size_t i = 0; i < n; i++) {
            h_ ^= static_cast<unsigned char>(data[i]);
            h_ *= 0x100000001b3ull;
        }
    }
    void text(const std::string &s) { bytes(s.data(), s.size() + 1); }
    void number(double v)
    {
        char buf[40];
        int n = std::snprintf(buf, sizeof(buf), "%.17g", v);
        bytes(buf, static_cast<std::size_t>(n) + 1);
    }
    void word(std::uint64_t v)
    {
        char buf[sizeof(v)];
        std::memcpy(buf, &v, sizeof(v));
        bytes(buf, sizeof(v));
    }
    std::uint64_t value() const { return h_; }

  private:
    std::uint64_t h_ = 0xcbf29ce484222325ull;
};

/** Stream buffer that hashes and counts what a trace sink writes and
 *  keeps none of it: the sink formats every event as it would for a
 *  file, but the bytes cost neither memory nor disk I/O. */
class HashingBuf final : public std::streambuf
{
  public:
    const Fnv1a &hash() const { return hash_; }
    std::uint64_t size() const { return size_; }

  protected:
    int_type overflow(int_type c) override
    {
        if (!traits_type::eq_int_type(c, traits_type::eof())) {
            char ch = traits_type::to_char_type(c);
            hash_.bytes(&ch, 1);
            size_++;
        }
        return traits_type::not_eof(c);
    }
    std::streamsize xsputn(const char *s, std::streamsize n) override
    {
        hash_.bytes(s, static_cast<std::size_t>(n));
        size_ += static_cast<std::uint64_t>(n);
        return n;
    }

  private:
    Fnv1a hash_;
    std::uint64_t size_ = 0;
};

void
hashMetrics(Fnv1a &h, const std::string &label, const RunMetrics &m)
{
    h.text(label);
    forEachRunMetricsField(m, [&](const char *name, const auto &v) {
        h.text(name);
        h.number(static_cast<double>(v));
    });
}

void
hashTimeline(Fnv1a &h, const std::string &label, const TimelineResult &r)
{
    hashMetrics(h, label, r.metrics);
    for (const auto *series :
         {&r.offeredRate, &r.normalizedPower, &r.avgLatency}) {
        h.number(static_cast<double>(series->size()));
        for (double v : *series)
            h.number(v);
    }
}

// ---------------------------------------------------------------------
// Spans: (name, start, end, parent) kept in memory, one log per thread.
// ---------------------------------------------------------------------

struct Span
{
    const char *name; ///< static string
    std::uint64_t id;
    std::uint64_t parent; ///< 0 = top level
    int tid;
    double startUs;
    double endUs;
    double durUs() const { return endUs - startUs; }
};

class SpanLog
{
  public:
    SpanLog(int tid, std::atomic<std::uint64_t> &ids, Clock::time_point origin)
        : tid_(tid), ids_(ids), origin_(origin)
    {
    }

    std::size_t open(const char *name, std::uint64_t parent)
    {
        spans_.push_back({name, ++ids_, parent, tid_, nowUs(), 0.0});
        return spans_.size() - 1;
    }
    void close(std::size_t index) { spans_[index].endUs = nowUs(); }
    const Span &at(std::size_t index) const { return spans_[index]; }

    const std::vector<Span> &spans() const { return spans_; }

  private:
    double nowUs() const
    {
        return std::chrono::duration<double, std::micro>(Clock::now() -
                                                         origin_)
            .count();
    }

    int tid_;
    std::atomic<std::uint64_t> &ids_;
    Clock::time_point origin_;
    std::vector<Span> spans_;
};

/** Run @p f inside a span named @p name; returns f's result. */
template <typename F>
auto
timed(SpanLog &log, const char *name, std::uint64_t parent, F &&f)
{
    std::size_t s = log.open(name, parent);
    if constexpr (std::is_void_v<std::invoke_result_t<F>>) {
        f();
        log.close(s);
    } else {
        auto r = f();
        log.close(s);
        return r;
    }
}

/** One log per thread that records spans: [0] the driving thread,
 *  [1..jobs] the traced sweep's workers. Created up front, so workers
 *  never touch the container. */
class SpanRecorder
{
  public:
    explicit SpanRecorder(int workers) : origin_(Clock::now())
    {
        for (int t = 0; t <= workers; t++)
            logs_.push_back(std::make_unique<SpanLog>(t, ids_, origin_));
    }
    SpanLog &log(int tid) { return *logs_.at(static_cast<std::size_t>(tid)); }
    const std::vector<std::unique_ptr<SpanLog>> &logs() const
    {
        return logs_;
    }

  private:
    std::atomic<std::uint64_t> ids_{0};
    Clock::time_point origin_;
    std::vector<std::unique_ptr<SpanLog>> logs_;
};

// ---------------------------------------------------------------------
// Workloads
// ---------------------------------------------------------------------

enum class Entry
{
    kTimelines,  ///< runTimelines (Figs. 6-7 path)
    kExperiment, ///< runExperiment, one point
    kSweep,      ///< SweepRunner::run (every figure bench's point path)
};

struct Workload
{
    const char *name;
    Entry entry;
    int jobs;       ///< worker threads of the entry point's pool
    bool journal;   ///< SweepRunner checkpoint journal on
    bool traceSink; ///< JSONL event trace attached (in memory)
};

// Why each workload exists is in README.md; in short: splash_fig7 is
// the paper's headline replay (bursty: busy phases and parked troughs),
// uniform_heavy keeps every link busy near the saturation knee,
// mesh32_leakage is large and light (parking bookkeeping, the per-epoch
// ledger/thermal scan over 20 k links, the largest set-up and RSS),
// faulted_westfirst drives replay, route-around and the direct power
// walk with a trace sink attached, and sweep_grid is the pooled point
// path with journal fsyncs. None sets shards, direct_boundary or
// idle elision: every workload runs the default kernel.
constexpr Workload kWorkloads[] = {
    {"splash_fig7", Entry::kTimelines, 1, false, false},
    {"uniform_heavy", Entry::kExperiment, 1, false, false},
    {"mesh32_leakage", Entry::kExperiment, 1, false, false},
    {"faulted_westfirst", Entry::kExperiment, 1, false, true},
    {"sweep_grid", Entry::kSweep, 2, true, false},
};

constexpr Cycle kWindow = 1000;       ///< traced run() window, cycles
constexpr Cycle kTimelineDrain = 300000; ///< runTimeline's drain limit

/** A pass's inputs. Timeline specs point into @c traces, so the struct
 *  moves (vector buffers keep their addresses) but never copies. */
struct Inputs
{
    Inputs() = default;
    Inputs(Inputs &&) = default;
    Inputs &operator=(Inputs &&) = default;
    Inputs(const Inputs &) = delete;
    Inputs &operator=(const Inputs &) = delete;

    std::vector<TraceData> traces;
    std::vector<TimelinePoint> timelines;
    std::vector<SweepPoint> points;
    /** Warm-up plus measured cycles over all points. */
    Cycle scheduledCycles = 0;
};

/** Paper defaults with the end-of-run conservation audit forced on, so
 *  a Release run checks flit and credit conservation too. */
SystemConfig
auditedConfig()
{
    SystemConfig c;
    c.conservationAudit = true;
    return c;
}

int
firstInterRouterLink(const SystemConfig &config)
{
    PoeSystem sys(config);
    for (std::size_t i = 0; i < sys.network().numLinks(); i++) {
        if (sys.network().linkSpec(i).kind == LinkKind::kInterRouter)
            return static_cast<int>(i);
    }
    fatal("oenet_e2e: no inter-router link");
}

SweepPoint
experimentPoint(std::string label, SystemConfig config, TrafficSpec spec,
                Cycle warmup, Cycle measure, Cycle drain_limit = 300000)
{
    SweepPoint p;
    p.label = std::move(label);
    p.config = std::move(config);
    p.spec = std::move(spec);
    p.protocol.warmup = warmup;
    p.protocol.measure = measure;
    p.protocol.drainLimit = drain_limit;
    return p;
}

Inputs
makeInputs(const Workload &w, std::uint64_t seed, bool smoke)
{
    Inputs in;
    const std::string name = w.name;
    if (name == "splash_fig7") {
        // bench_fig7_splash's --smoke shape (120 k cycles, 10 k bins,
        // rate scale 0.25); the traces are generated from the seed.
        const Cycle duration = smoke ? 24000 : 120000;
        const Cycle bin = smoke ? 4000 : 10000;
        const SplashKind kinds[] = {SplashKind::kFft, SplashKind::kLu,
                                    SplashKind::kRadix};
        SystemConfig base = auditedConfig();
        in.traces.reserve(std::size(kinds));
        for (SplashKind kind : kinds) {
            SplashSynthParams sp;
            sp.kind = kind;
            sp.numNodes = base.numNodes();
            sp.duration = duration;
            sp.rateScale = 0.25;
            sp.seed = deriveStreamSeed(seed, in.traces.size());
            in.traces.push_back(generateSplashTrace(sp));

            TimelinePoint p;
            p.label = splashKindName(kind);
            p.config = base;
            p.spec = TrafficSpec::traceReplay(in.traces.back());
            p.total = duration;
            p.bin = bin;
            in.timelines.push_back(std::move(p));
            in.scheduledCycles += duration;
        }
    } else if (name == "uniform_heavy") {
        in.points.push_back(experimentPoint(
            "uniform/5.5", auditedConfig(), TrafficSpec::uniform(5.5, 4, seed),
            smoke ? 1000 : 5000, smoke ? 2000 : 40000));
    } else if (name == "mesh32_leakage") {
        SystemConfig c = auditedConfig();
        c.meshX = 32;
        c.meshY = 32;
        c.thermal.enabled = true;
        in.points.push_back(experimentPoint(
            "mesh32/2.0", c, TrafficSpec::uniform(2.0, 4, seed),
            smoke ? 500 : 2000, smoke ? 500 : 8000));
    } else if (name == "faulted_westfirst") {
        SystemConfig c = auditedConfig();
        c.routing = RoutingAlgo::kWestFirst;
        c.fault.enabled = true;
        c.fault.seed = deriveStreamSeed(seed, 1);
        c.fault.berFloor = 1e-4;
        Cycle warmup = smoke ? 1000 : 5000;
        Cycle measure = smoke ? 2000 : 30000;
        SystemConfig healthy = c;
        healthy.fault = FaultParams{};
        c.fault.killLink = firstInterRouterLink(healthy);
        c.fault.killCycle = warmup + measure / 2;
        // Flits lost with the link never eject, so this point never
        // drains: the drain phase always runs its whole limit.
        in.points.push_back(experimentPoint(
            "westfirst/ber1e-4/kill", c, TrafficSpec::uniform(3.0, 4, seed),
            warmup, measure, smoke ? 2000 : 10000));
    } else if (name == "sweep_grid") {
        // Fig. 5(g)(h) subset; all configs at one rate share a stream.
        const double rates[] = {1.0, 2.0, 4.0, 5.5};
        struct Cfg
        {
            const char *name;
            LinkScheme scheme;
            double brMin;
            bool powerAware;
        };
        const Cfg cfgs[] = {
            {"non_pa", LinkScheme::kModulator, 5.0, false},
            {"pa_5to10", LinkScheme::kModulator, 5.0, true},
            {"pa_3.3to10", LinkScheme::kModulator, 3.3, true},
            {"vcsel_5to10", LinkScheme::kVcsel, 5.0, true},
        };
        for (std::size_t ri = 0; ri < std::size(rates); ri++) {
            for (const Cfg &cfg : cfgs) {
                SystemConfig c = auditedConfig();
                c.scheme = cfg.scheme;
                c.brMinGbps = cfg.brMin;
                c.powerAware = cfg.powerAware;
                char label[64];
                std::snprintf(label, sizeof(label), "rate=%.1f/%s",
                              rates[ri], cfg.name);
                SweepPoint p = experimentPoint(
                    label, c, TrafficSpec::uniform(rates[ri], 4),
                    smoke ? 500 : 2000, smoke ? 1000 : 5000);
                p.params = {{"rate", rates[ri]}};
                p.seedKey = ri;
                in.points.push_back(std::move(p));
            }
        }
    }
    for (const SweepPoint &p : in.points)
        in.scheduledCycles += p.protocol.warmup + p.protocol.measure;
    return in;
}

SweepRunner
makeRunner(int jobs, std::uint64_t seed, const std::string &journal)
{
    SweepRunner::Options o;
    o.jobs = jobs;
    o.baseSeed = seed;
    o.journalPath = journal;
    o.maxRetries = 0; // a retry would hide a failure and skew wall time
    return SweepRunner(o);
}

/** The point's spec as the entry point will run it (sweep and timeline
 *  runners re-seed it; runExperiment takes it as given). */
TrafficSpec
stagedSpec(const Workload &w, const SweepRunner &runner,
           const TrafficSpec &spec, std::uint64_t seed_key,
           std::size_t index)
{
    TrafficSpec s = spec;
    if (w.entry != Entry::kExperiment) {
        std::uint64_t key = seed_key == kSeedKeyFromIndex ? index : seed_key;
        s.seed = deriveStreamSeed(runner.options().baseSeed, key);
    }
    return s;
}

// ---------------------------------------------------------------------
// Checks on the simulated outputs
// ---------------------------------------------------------------------

struct PassResult
{
    double wallS = 0.0;
    std::vector<double> pointS; ///< per point, from the entry point
    std::uint64_t fingerprint = 0;
    std::size_t attempted = 0;
    std::size_t failed = 0;
    /** Drain cycles known from outside: an undrained point ran its
     *  whole drain limit; a drained point's short tail is not visible
     *  through the entry points and is not counted. */
    Cycle drainCycles = 0;
    std::uint64_t traceBytes = 0;
    std::vector<std::string> errors;
};

/**
 * A point fails when the runner gave up on it, the conservation audit
 * found an unaccounted flit or credit, or it did not drain although no
 * fault dropped a flit (dropped flits never eject, and the audit
 * already accounts for them). A point that ran must look like a
 * simulation: traffic delivered, positive latency and power, and the
 * workload's own mechanism visible in its counters.
 */
void
checkPoint(const Workload &w, const std::string &label, bool ran,
           const RunMetrics &m, Cycle drain_limit, PassResult &r)
{
    r.attempted++;
    bool lost = m.flitsDroppedOnFail + m.flitsDroppedDeadPort > 0;
    if (!ran || m.auditFailures > 0 || (!m.drained && !lost)) {
        r.failed++;
        return;
    }
    if (!m.drained)
        r.drainCycles += drain_limit;
    auto require = [&](bool ok, const char *what) {
        if (!ok)
            r.errors.push_back(label + ": " + what);
    };
    require(m.packetsMeasured > 0 && m.packetsEjected > 0,
            "no packets delivered");
    require(m.packetsEjected <= m.packetsInjected,
            "more packets ejected than injected");
    require(std::isfinite(m.avgLatency) && m.avgLatency > 0.0,
            "non-positive latency");
    require(std::isfinite(m.avgPowerMw) && m.avgPowerMw > 0.0 &&
                m.normalizedPower > 0.0,
            "non-positive power");
    const std::string name = w.name;
    if (name == "mesh32_leakage")
        require(m.leakagePowerMw > 0.0, "no leakage power");
    if (name == "faulted_westfirst") {
        require(m.flitRetries > 0, "BER floor caused no retransmission");
        require(m.linkHardFailures == 1, "scripted link kill missing");
    }
}

// ---------------------------------------------------------------------
// The untraced pass: the public entry points, timed from outside.
// ---------------------------------------------------------------------

PassResult
runUntraced(const Workload &w, const Inputs &in, std::uint64_t seed,
            int jobs, bool with_sink, const std::string &journal,
            SpanLog &log)
{
    PassResult r;
    Fnv1a h;
    std::size_t span = log.open("pass.untraced", 0);
    switch (w.entry) {
      case Entry::kTimelines: {
        SweepRunner runner = makeRunner(jobs, seed, "");
        Clock::time_point t0 = Clock::now();
        std::vector<TimelineOutcome> outs = runTimelines(runner, in.timelines);
        r.wallS = secondsSince(t0);
        for (const TimelineOutcome &o : outs) {
            r.pointS.push_back(o.wallMs / 1000.0);
            hashTimeline(h, o.label, o.timeline);
            checkPoint(w, o.label, o.status == PointStatus::kOk,
                       o.timeline.metrics, kTimelineDrain, r);
        }
        break;
      }
      case Entry::kExperiment: {
        const SweepPoint &p = in.points.front();
        HashingBuf bytes;
        std::ostream stream(&bytes);
        std::unique_ptr<TraceSink> sink;
        TraceOptions trace;
        if (with_sink) {
            sink = std::make_unique<JsonlTraceSink>(stream);
            trace.sink = sink.get();
        }
        Clock::time_point t0 = Clock::now();
        RunMetrics m = runExperiment(p.config, p.spec, p.protocol, trace);
        r.wallS = secondsSince(t0);
        sink.reset();
        r.pointS.push_back(r.wallS);
        hashMetrics(h, p.label, m);
        checkPoint(w, p.label, true, m, p.protocol.drainLimit, r);
        r.traceBytes = bytes.size();
        h.word(bytes.hash().value());
        break;
      }
      case Entry::kSweep: {
        std::filesystem::remove(journal);
        SweepRunner runner = makeRunner(jobs, seed, journal);
        Clock::time_point t0 = Clock::now();
        SweepReport report = runner.run(in.points);
        r.wallS = secondsSince(t0);
        for (const SweepOutcome &o : report.outcomes) {
            r.pointS.push_back(o.wallMs / 1000.0);
            hashMetrics(h, o.label, o.metrics);
            checkPoint(w, o.label, o.ok(), o.metrics,
                       in.points[o.index].protocol.drainLimit, r);
        }
        // The journal must hold every point, bit-identical to memory.
        SweepJournal::Loaded j = SweepJournal::load(journal);
        std::vector<const SweepOutcome *> byIndex(report.outcomes.size());
        for (const SweepOutcome &o : j.outcomes) {
            if (o.index < byIndex.size())
                byIndex[o.index] = &o;
        }
        Fnv1a jh;
        for (const SweepOutcome *o : byIndex) {
            if (o)
                hashMetrics(jh, o->label, o->metrics);
        }
        if (j.outcomes.size() != report.outcomes.size() ||
            jh.value() != h.value())
            r.errors.push_back("journal does not match the sweep");
        std::filesystem::remove(journal);
        break;
      }
    }
    log.close(span);
    r.fingerprint = h.value();
    return r;
}

// ---------------------------------------------------------------------
// The traced pass: the same protocol through PoeSystem's public methods.
// ---------------------------------------------------------------------

/** Counters read between calls; one per recording thread. */
struct Probe
{
    double activeTicks = 0.0;   ///< sum(activeCount x window cycles)
    double activeFracSum = 0.0; ///< sum(activeCount / tickingCount)
    double occupancySum = 0.0;  ///< sum(flitsInSystem) at window edges
    std::size_t windows = 0;
    std::uint64_t flitsMoved = 0; ///< flits ejected inside windows
    std::uint64_t flitsEjected = 0;
    std::uint64_t transitions = 0;
    std::uint64_t retries = 0;
    std::uint64_t corrupted = 0;
    std::size_t links = 0;

    void merge(const Probe &o)
    {
        activeTicks += o.activeTicks;
        activeFracSum += o.activeFracSum;
        occupancySum += o.occupancySum;
        windows += o.windows;
        flitsMoved += o.flitsMoved;
        flitsEjected += o.flitsEjected;
        transitions += o.transitions;
        retries += o.retries;
        corrupted += o.corrupted;
        links = std::max(links, o.links);
    }
};

/** sys.run(cycles) in kWindow-cycle calls, reading the kernel and
 *  network counters between them and sampling the power paths. */
void
runWindows(PoeSystem &sys, Cycle cycles, SpanLog &log, std::uint64_t parent,
           Probe &probe)
{
    for (Cycle done = 0; done < cycles;) {
        Cycle step = std::min(kWindow, cycles - done);
        double active = static_cast<double>(sys.kernel().activeCount());
        std::uint64_t ejected = sys.network().flitsEjected();
        timed(log, "run", parent, [&] { sys.run(step); });
        done += step;

        std::uint64_t inFlight = sys.network().flitsInSystem();
        probe.windows++;
        probe.activeTicks += active * static_cast<double>(step);
        probe.activeFracSum +=
            active / static_cast<double>(sys.kernel().tickingCount());
        probe.flitsMoved += sys.network().flitsEjected() - ejected;
        probe.occupancySum += static_cast<double>(inFlight);

        timed(log, "makePowerReport", parent,
              [&] { return makePowerReport(sys.network(), sys.now()); });
        timed(log, "totalPowerIntegral", parent, [&] {
            return sys.network().totalPowerIntegralMwCycles(sys.now());
        });
    }
}

/** Measurement end, drain, metrics and audit — the tail every protocol
 *  shares with runExperiment / runTimeline. */
RunMetrics
finishRun(PoeSystem &sys, const SystemConfig &cfg, Cycle drain_limit,
          TraceSink *sink, SpanLog &log, std::uint64_t parent, Probe &probe)
{
    timed(log, "stopMeasurement", parent, [&] { sys.stopMeasurement(); });
    timed(log, "awaitDrain", parent,
          [&] { return sys.awaitDrain(drain_limit); });
    RunMetrics m =
        timed(log, "metrics", parent, [&] { return sys.metrics(); });
    if (cfg.conservationAuditEnabled()) {
        if (sink)
            sys.setTraceSink(nullptr);
        m.auditFailures = timed(log, "auditConservation", parent,
                                [&] { return sys.auditConservation(); });
    }
    probe.flitsEjected += sys.network().flitsEjected();
    probe.transitions += m.transitions;
    probe.retries += m.flitRetries;
    probe.corrupted += m.flitsCorrupted;
    probe.links = std::max(probe.links, sys.network().numLinks());
    return m;
}

std::unique_ptr<PoeSystem>
buildSystem(const SystemConfig &cfg, const TrafficSpec &spec, SpanLog &log,
            std::uint64_t parent)
{
    auto sys = timed(log, "PoeSystem()", parent,
                     [&] { return std::make_unique<PoeSystem>(cfg); });
    timed(log, "setTraffic", parent,
          [&] { sys->setTraffic(makeTraffic(spec, cfg)); });
    return sys;
}

/** runExperiment, call by call. */
RunMetrics
traceExperiment(const SweepPoint &p, const TrafficSpec &spec,
                TraceSink *sink, SpanLog &log, std::uint64_t parent,
                Probe &probe)
{
    std::size_t span = log.open("point", parent);
    std::uint64_t id = log.at(span).id;
    std::unique_ptr<PoeSystem> sys = buildSystem(p.config, spec, log, id);
    if (sink) {
        timed(log, "setTraceSink", id, [&] {
            sys->setTraceSink(sink, p.config.metricsIntervalCycles);
        });
    }
    runWindows(*sys, p.protocol.warmup, log, id, probe);
    timed(log, "startMeasurement", id, [&] { sys->startMeasurement(); });
    runWindows(*sys, p.protocol.measure, log, id, probe);
    RunMetrics m = finishRun(*sys, p.config, p.protocol.drainLimit, sink,
                             log, id, probe);
    timed(log, "~PoeSystem", id, [&] { sys.reset(); });
    log.close(span);
    return m;
}

/** runTimeline, call by call (same bin arithmetic). */
TimelineResult
traceTimeline(const TimelinePoint &p, const TrafficSpec &spec, SpanLog &log,
              std::uint64_t parent, Probe &probe)
{
    std::size_t span = log.open("point", parent);
    std::uint64_t id = log.at(span).id;
    TimelineResult result;
    result.bin = p.bin;
    std::unique_ptr<PoeSystem> sys = buildSystem(p.config, spec, log, id);
    if (p.warmup > 0)
        runWindows(*sys, p.warmup, log, id, probe);
    timed(log, "startMeasurement", id, [&] { sys->startMeasurement(); });

    Network &net = sys->network();
    double base = net.baselinePowerMw();
    double prevIntegral = net.totalPowerIntegralMwCycles(sys->now());
    std::uint64_t prevCreated = sys->measuredCreated();
    double prevLatSum = sys->latencyStat().sum();
    std::size_t prevLatN = sys->latencyStat().count();
    for (Cycle t = 0; t < p.total; t += p.bin) {
        Cycle step = std::min(p.bin, p.total - t);
        runWindows(*sys, step, log, id, probe);

        double integral = net.totalPowerIntegralMwCycles(sys->now());
        result.normalizedPower.push_back((integral - prevIntegral) /
                                         (static_cast<double>(step) * base));
        prevIntegral = integral;
        std::uint64_t created = sys->measuredCreated();
        result.offeredRate.push_back(static_cast<double>(created -
                                                         prevCreated) /
                                     static_cast<double>(step));
        prevCreated = created;
        double latSum = sys->latencyStat().sum();
        std::size_t latN = sys->latencyStat().count();
        result.avgLatency.push_back(
            latN > prevLatN
                ? (latSum - prevLatSum) / static_cast<double>(latN - prevLatN)
                : 0.0);
        prevLatSum = latSum;
        prevLatN = latN;
    }
    result.metrics =
        finishRun(*sys, p.config, kTimelineDrain, nullptr, log, id, probe);
    timed(log, "~PoeSystem", id, [&] { sys.reset(); });
    log.close(span);
    return result;
}

PassResult
runTraced(const Workload &w, const Inputs &in, std::uint64_t seed, int jobs,
          SpanRecorder &rec, Probe &probe)
{
    PassResult r;
    Fnv1a h;
    SpanLog &log = rec.log(0);
    std::size_t span = log.open("pass.traced", 0);
    std::uint64_t id = log.at(span).id;
    SweepRunner runner = makeRunner(jobs, seed, "");
    Clock::time_point t0 = Clock::now();
    switch (w.entry) {
      case Entry::kTimelines: {
        std::vector<TimelineResult> results(in.timelines.size());
        for (std::size_t i = 0; i < in.timelines.size(); i++) {
            const TimelinePoint &p = in.timelines[i];
            TrafficSpec spec = stagedSpec(w, runner, p.spec, p.seedKey, i);
            Clock::time_point p0 = Clock::now();
            results[i] = traceTimeline(p, spec, log, id, probe);
            r.pointS.push_back(secondsSince(p0));
        }
        r.wallS = secondsSince(t0);
        for (std::size_t i = 0; i < results.size(); i++) {
            hashTimeline(h, in.timelines[i].label, results[i]);
            checkPoint(w, in.timelines[i].label, true, results[i].metrics,
                       kTimelineDrain, r);
        }
        break;
      }
      case Entry::kExperiment: {
        const SweepPoint &p = in.points.front();
        HashingBuf bytes;
        std::ostream stream(&bytes);
        std::unique_ptr<TraceSink> sink;
        if (w.traceSink)
            sink = std::make_unique<JsonlTraceSink>(stream);
        RunMetrics m = traceExperiment(p, p.spec, sink.get(), log, id, probe);
        r.wallS = secondsSince(t0);
        sink.reset();
        r.pointS.push_back(r.wallS);
        hashMetrics(h, p.label, m);
        checkPoint(w, p.label, true, m, p.protocol.drainLimit, r);
        r.traceBytes = bytes.size();
        h.word(bytes.hash().value());
        break;
      }
      case Entry::kSweep: {
        // Same pool width as the runner; each worker records into its
        // own log and probe, merged after the join.
        std::vector<RunMetrics> results(in.points.size());
        std::vector<double> pointS(in.points.size());
        std::vector<Probe> probes(static_cast<std::size_t>(
            effectiveJobs(jobs, in.points.size())));
        parallelFor(in.points.size(), jobs, [&](std::size_t i, int worker) {
            const SweepPoint &p = in.points[i];
            TrafficSpec spec = stagedSpec(w, runner, p.spec, p.seedKey, i);
            Clock::time_point p0 = Clock::now();
            results[i] = traceExperiment(p, spec, nullptr,
                                         rec.log(worker + 1), id,
                                         probes[static_cast<std::size_t>(
                                             worker)]);
            pointS[i] = secondsSince(p0);
        });
        r.wallS = secondsSince(t0);
        r.pointS = pointS;
        for (const Probe &p : probes)
            probe.merge(p);
        for (std::size_t i = 0; i < results.size(); i++) {
            hashMetrics(h, in.points[i].label, results[i]);
            checkPoint(w, in.points[i].label, true, results[i],
                       in.points[i].protocol.drainLimit, r);
        }
        break;
      }
    }
    log.close(span);
    r.fingerprint = h.value();
    return r;
}

// ---------------------------------------------------------------------
// Set-up: input generation plus system construction, several times.
// ---------------------------------------------------------------------

struct SetupTimes
{
    std::vector<double> totalS, generateS, constructS;
};

/** Build the inputs and construct every point's system with its traffic
 *  installed (what the entry point does before its first cycle), at
 *  least once and until @p budget_s has passed; returns the inputs of
 *  the last repetition. */
Inputs
measureSetup(const Workload &w, std::uint64_t seed, bool smoke, int jobs,
             double budget_s, SpanLog &log, SetupTimes &times)
{
    constexpr int kMaxReps = 100;
    SweepRunner runner = makeRunner(jobs, seed, "");
    Inputs in;
    Clock::time_point start = Clock::now();
    for (int rep = 0;
         rep == 0 || (rep < kMaxReps && secondsSince(start) < budget_s);
         rep++) {
        std::size_t span = log.open("setup", 0);
        std::uint64_t id = log.at(span).id;
        Clock::time_point t0 = Clock::now();
        in = timed(log, "generate", id,
                   [&] { return makeInputs(w, seed, smoke); });
        double gen = secondsSince(t0);

        double con = 0.0;
        auto construct = [&](const SystemConfig &cfg,
                             const TrafficSpec &spec) {
            Clock::time_point c0 = Clock::now();
            std::size_t s = log.open("construct", id);
            auto sys = std::make_unique<PoeSystem>(cfg);
            sys->setTraffic(makeTraffic(spec, cfg));
            log.close(s);
            con += secondsSince(c0);
            timed(log, "~PoeSystem", id, [&] { sys.reset(); });
        };
        for (std::size_t i = 0; i < in.timelines.size(); i++) {
            const TimelinePoint &p = in.timelines[i];
            construct(p.config, stagedSpec(w, runner, p.spec, p.seedKey, i));
        }
        for (std::size_t i = 0; i < in.points.size(); i++) {
            const SweepPoint &p = in.points[i];
            construct(p.config, stagedSpec(w, runner, p.spec, p.seedKey, i));
        }
        log.close(span);
        times.generateS.push_back(gen);
        times.constructS.push_back(con);
        times.totalS.push_back(gen + con);
    }
    return in;
}

// ---------------------------------------------------------------------
// Output
// ---------------------------------------------------------------------

std::string
jsonString(const std::string &s)
{
    std::string out = "\"";
    for (char c : s) {
        if (c == '"' || c == '\\') {
            out += '\\';
            out += c;
        } else if (static_cast<unsigned char>(c) < 0x20) {
            char buf[8];
            std::snprintf(buf, sizeof(buf), "\\u%04x", c);
            out += buf;
        } else {
            out += c;
        }
    }
    return out + "\"";
}

std::string
jsonNumber(double v)
{
    if (!std::isfinite(v))
        return "null";
    char buf[40];
    std::snprintf(buf, sizeof(buf), "%.17g", v);
    return buf;
}

struct Metric
{
    std::string name;
    double value;
    const char *unit;
};

std::string
cpuModel()
{
    std::ifstream f("/proc/cpuinfo");
    std::string line;
    while (std::getline(f, line)) {
        if (line.rfind("model name", 0) == 0) {
            std::size_t colon = line.find(':');
            if (colon != std::string::npos)
                return line.substr(line.find_first_not_of(' ', colon + 1));
        }
    }
    return "unknown";
}

/** Build type, core count, CPU and compiler: the machine a number
 *  belongs to. oenet_build_type is what perf_compare.py checks. */
std::string
contextJson()
{
    std::string out = "{\"oenet_build_type\": ";
    out += jsonString(OENET_E2E_BUILD_TYPE);
    out += ", \"nproc\": " +
           std::to_string(std::thread::hardware_concurrency());
    out += ", \"cpu\": " + jsonString(cpuModel());
#ifdef __clang__
    out += ", \"compiler\": " + jsonString("clang " __clang_version__);
#else
    out += ", \"compiler\": " + jsonString("gcc " __VERSION__);
#endif
    return out + "}";
}

/** Peak resident set of this process image, MB. VmHWM rather than
 *  getrusage's ru_maxrss, which survives execve and so would report
 *  the launcher's footprint when that is larger. */
double
peakRssMb()
{
    std::ifstream f("/proc/self/status");
    std::string line;
    while (std::getline(f, line)) {
        if (line.rfind("VmHWM:", 0) == 0)
            return std::strtod(line.c_str() + 6, nullptr) / 1024.0; // kB
    }
    fatal("oenet_e2e: no VmHWM in /proc/self/status");
}

/** Durations (us) of every span named @p name across all logs. */
std::vector<double>
spanDurations(const SpanRecorder &rec, const char *name)
{
    std::vector<double> out;
    for (const auto &log : rec.logs()) {
        for (const Span &s : log->spans()) {
            if (std::strcmp(s.name, name) == 0)
                out.push_back(s.durUs());
        }
    }
    return out;
}

std::vector<double>
walls(const std::vector<PassResult> &passes)
{
    std::vector<double> v;
    for (const PassResult &p : passes)
        v.push_back(p.wallS);
    return v;
}

/** The end-to-end metrics of an untraced run: medians over passes and
 *  set-up repetitions. */
std::vector<Metric>
endToEndMetrics(const std::vector<PassResult> &plain,
                const SetupTimes &setup, Cycle scheduled_cycles)
{
    std::vector<double> rates;
    for (const PassResult &p : plain) {
        rates.push_back(static_cast<double>(scheduled_cycles + p.drainCycles) /
                        p.wallS);
    }
    return {
        {"wall_s", median(walls(plain)), "s"},
        {"sim_cycles_per_s", median(rates), "cycles/s"},
        {"setup_s", median(setup.totalS), "s"},
        {"peak_rss_mb", peakRssMb(), "MB"},
    };
}

/** The per-layer metrics of a traced run: call durations from the
 *  spans, counters from the probe, pool telemetry from the untraced
 *  passes, and the two overheads (trace sink on vs. detached, traced
 *  re-drive vs. untraced). */
std::vector<Metric>
layerMetrics(const std::vector<PassResult> &plain,
             const std::vector<PassResult> &traced,
             const std::vector<PassResult> &bare, const SetupTimes &setup,
             const SpanRecorder &rec, const Probe &probe, int jobs)
{
    std::vector<double> effs, p50s, maxes;
    for (const PassResult &p : plain) {
        double sum = 0.0;
        for (double s : p.pointS)
            sum += s;
        effs.push_back(sum / (static_cast<double>(jobs) * p.wallS));
        p50s.push_back(median(p.pointS));
        maxes.push_back(*std::max_element(p.pointS.begin(), p.pointS.end()));
    }
    std::vector<double> windowMs = spanDurations(rec, "run");
    double runNs = 0.0;
    for (double &d : windowMs) {
        runNs += d * 1e3;
        d /= 1e3;
    }
    double drainS = 0.0;
    for (double d : spanDurations(rec, "awaitDrain"))
        drainS += d / 1e6;

    const double passes = static_cast<double>(traced.size());
    const double windows = static_cast<double>(probe.windows);
    const double plainWall = median(walls(plain));
    const double powerReportUs = median(spanDurations(rec, "makePowerReport"));
    auto perUnit = [](double total, std::uint64_t count) {
        return total / static_cast<double>(std::max<std::uint64_t>(count, 1));
    };
    return {
        {"core.construct_s", median(setup.constructS), "s"},
        {"traffic.generate_s", median(setup.generateS), "s"},
        {"sim.window_ms_p50", quantile(windowMs, 0.5), "ms"},
        {"sim.window_ms_p90", quantile(windowMs, 0.9), "ms"},
        {"sim.active_frac", probe.activeFracSum / windows, "ratio"},
        // Active components are sampled at each window's start.
        {"sim.ns_per_active_tick", runNs / probe.activeTicks, "ns"},
        {"network.ns_per_flit", perUnit(runNs, probe.flitsMoved), "ns"},
        {"network.occupancy_mean", probe.occupancySum / windows, "flits"},
        {"phy.power_report_us", powerReportUs, "us"},
        {"phy.power_report_ns_per_link",
         powerReportUs * 1e3 / static_cast<double>(probe.links), "ns"},
        {"phy.total_power_us",
         median(spanDurations(rec, "totalPowerIntegral")), "us"},
        {"core.drain_s", drainS / passes, "s"},
        {"policy.transitions",
         static_cast<double>(probe.transitions) / passes, "count"},
        {"fault.retry_frac",
         perUnit(static_cast<double>(probe.retries), probe.flitsEjected),
         "ratio"},
        {"fault.corrupted", static_cast<double>(probe.corrupted) / passes,
         "count"},
        {"trace.bytes", static_cast<double>(traced.front().traceBytes),
         "bytes"},
        {"trace.overhead_frac",
         bare.empty() ? 0.0 : plainWall / median(walls(bare)) - 1.0,
         "ratio"},
        {"core.sweep.parallel_eff", median(effs), "ratio"},
        {"core.sweep.point_s_p50", median(p50s), "s"},
        {"core.sweep.point_s_max", median(maxes), "s"},
        {"layers.overhead_frac", median(walls(traced)) / plainWall - 1.0,
         "ratio"},
    };
}

/** Microseconds to the nanosecond, the trace's timestamp resolution. */
std::string
jsonUs(double us)
{
    char buf[40];
    std::snprintf(buf, sizeof(buf), "%.3f", us);
    return buf;
}

void
writeChromeTrace(const std::string &path, const SpanRecorder &rec,
                 const std::string &other)
{
    std::ofstream f(path);
    if (!f)
        fatal("oenet_e2e: cannot write %s", path.c_str());
    f << "{\"displayTimeUnit\": \"ms\", \"otherData\": " << other
      << ", \"traceEvents\": [\n";
    const char *sep = "";
    for (const auto &log : rec.logs()) {
        for (const Span &s : log->spans()) {
            f << sep << "{\"name\": " << jsonString(s.name)
              << ", \"ph\": \"X\", \"pid\": 1, \"tid\": " << s.tid
              << ", \"ts\": " << jsonUs(s.startUs)
              << ", \"dur\": " << jsonUs(s.durUs())
              << ", \"args\": {\"id\": " << s.id
              << ", \"parent\": " << s.parent << "}}";
            sep = ",\n";
        }
    }
    f << "\n]}\n";
    if (!f)
        fatal("oenet_e2e: write to %s failed", path.c_str());
}

// ---------------------------------------------------------------------
// Command line
// ---------------------------------------------------------------------

struct Args
{
    std::string workload;
    std::uint64_t seed = 1;
    double seconds = 10.0;
    bool smoke = false;
    int jobs = 0;         ///< 0 = the workload's own pool width
    std::string layers;   ///< traced run; Chrome trace written here
    std::string scratch = "."; ///< journal directory
};

[[noreturn]] void
usage(const char *prog, int status)
{
    std::fprintf(status ? stderr : stdout,
                 "usage: %s --workload NAME [--seed N] [--seconds S] "
                 "[--smoke]\n"
                 "          [--jobs N] [--layers OUT.json] "
                 "[--scratch DIR]\n"
                 "workloads:",
                 prog);
    for (const Workload &w : kWorkloads)
        std::fprintf(status ? stderr : stdout, " %s", w.name);
    std::fprintf(status ? stderr : stdout, "\n");
    std::exit(status);
}

Args
parseArgs(int argc, char **argv)
{
    Args a;
    for (int i = 1; i < argc; i++) {
        const char *flag = argv[i];
        auto value = [&]() -> std::string {
            if (i + 1 >= argc)
                fatal("%s: %s needs a value", argv[0], flag);
            return argv[++i];
        };
        auto number = [&](double lo, double hi) {
            std::string text = value();
            char *end = nullptr;
            double v = std::strtod(text.c_str(), &end);
            if (text.empty() || *end != '\0' || !(v >= lo && v <= hi))
                fatal("%s: %s needs a number in [%g, %g], got '%s'",
                      argv[0], flag, lo, hi, text.c_str());
            return v;
        };
        if (std::strcmp(flag, "--workload") == 0) {
            a.workload = value();
        } else if (std::strcmp(flag, "--seed") == 0) {
            std::string text = value();
            char *end = nullptr;
            errno = 0;
            a.seed = std::strtoull(text.c_str(), &end, 10);
            if (text.empty() || text[0] == '-' || *end != '\0' || errno)
                fatal("%s: --seed needs an unsigned number, got '%s'",
                      argv[0], text.c_str());
        } else if (std::strcmp(flag, "--seconds") == 0) {
            a.seconds = number(0.0, 3600.0);
        } else if (std::strcmp(flag, "--smoke") == 0) {
            a.smoke = true;
        } else if (std::strcmp(flag, "--jobs") == 0) {
            double v = number(1.0, 2.0); // no run uses more than 2 threads
            if (v != std::floor(v))
                fatal("%s: --jobs needs 1 or 2", argv[0]);
            a.jobs = static_cast<int>(v);
        } else if (std::strcmp(flag, "--layers") == 0) {
            a.layers = value();
        } else if (std::strcmp(flag, "--scratch") == 0) {
            a.scratch = value();
        } else if (std::strcmp(flag, "--help") == 0) {
            usage(argv[0], 0);
        } else {
            std::fprintf(stderr, "%s: unknown flag '%s'\n", argv[0], flag);
            usage(argv[0], 1);
        }
    }
    if (a.workload.empty())
        usage(argv[0], 1);
    return a;
}

} // namespace

int
main(int argc, char **argv)
{
    Args args = parseArgs(argc, argv);
    const Workload *found = nullptr;
    for (const Workload &w : kWorkloads) {
        if (args.workload == w.name)
            found = &w;
    }
    if (!found) {
        std::fprintf(stderr, "%s: unknown workload '%s'\n", argv[0],
                     args.workload.c_str());
        usage(argv[0], 1);
    }
    const Workload &w = *found;
    const int jobs = args.jobs > 0 ? args.jobs : w.jobs;
    const bool traced = !args.layers.empty();
    setQuiet(true); // stdout carries only the record

    std::string journal;
    if (w.journal) {
        std::filesystem::create_directories(args.scratch);
        journal = args.scratch + "/" + w.name + "." +
                  std::to_string(::getpid()) + ".journal";
    }

    SpanRecorder rec(jobs);
    SpanLog &log = rec.log(0);
    // Set-up repetitions run before every round rather than all up
    // front, so their median samples the whole run, as the passes do.
    constexpr double kSetupRoundS = 0.05;
    SetupTimes setup;
    Inputs in = measureSetup(w, args.seed, args.smoke, jobs, kSetupRoundS,
                             log, setup);

    // Passes on identical inputs (rebuilt by every set-up round) until
    // the time budget is used. A traced run alternates untraced, traced
    // and (with a trace sink) sink-detached passes, so drift hits all
    // three alike.
    std::vector<PassResult> plain, tracedPasses, bare;
    Probe probe;
    const std::size_t minRounds = traced ? 1 : 2;
    Clock::time_point start = Clock::now();
    for (;;) {
        Clock::time_point r0 = Clock::now();
        if (!plain.empty()) {
            in = measureSetup(w, args.seed, args.smoke, jobs, kSetupRoundS,
                              log, setup);
        }
        plain.push_back(
            runUntraced(w, in, args.seed, jobs, w.traceSink, journal, log));
        if (traced) {
            tracedPasses.push_back(
                runTraced(w, in, args.seed, jobs, rec, probe));
            if (w.traceSink) {
                bare.push_back(
                    runUntraced(w, in, args.seed, jobs, false, journal, log));
            }
        }
        double round = secondsSince(r0);
        if (plain.size() >= minRounds &&
            secondsSince(start) + round > args.seconds)
            break;
    }

    // Correctness: one fingerprint for every pass of a kind, and the
    // traced re-drive reproducing the entry point's bits.
    std::uint64_t fp = plain.front().fingerprint;
    std::size_t attempted = 0, failed = 0;
    std::vector<std::string> errors;
    auto account = [&](const std::vector<PassResult> &passes,
                       std::uint64_t want, const char *kind) {
        for (const PassResult &p : passes) {
            attempted += p.attempted;
            failed += p.failed;
            errors.insert(errors.end(), p.errors.begin(), p.errors.end());
            if (p.fingerprint != want)
                errors.push_back(std::string(kind) +
                                 " pass fingerprint differs");
        }
    };
    account(plain, fp, "untraced");
    account(tracedPasses, fp, "traced");
    if (!bare.empty())
        account(bare, bare.front().fingerprint, "sink-detached");
    std::sort(errors.begin(), errors.end());
    errors.erase(std::unique(errors.begin(), errors.end()), errors.end());

    const std::vector<Metric> metrics =
        traced ? layerMetrics(plain, tracedPasses, bare, setup, rec, probe,
                              jobs)
               : endToEndMetrics(plain, setup, in.scheduledCycles);

    char fpText[24];
    std::snprintf(fpText, sizeof(fpText), "%016llx",
                  static_cast<unsigned long long>(fp));

    if (traced) {
        std::string other = "{\"workload\": " + jsonString(w.name) +
                            ", \"seed\": " + std::to_string(args.seed) +
                            ", \"jobs\": " + std::to_string(jobs) +
                            ", \"context\": " + contextJson() +
                            ", \"traced_pass_s\": [";
        for (std::size_t i = 0; i < tracedPasses.size(); i++)
            other += (i ? ", " : "") + jsonNumber(tracedPasses[i].wallS);
        other += "], \"untraced_pass_s\": [";
        for (std::size_t i = 0; i < plain.size(); i++)
            other += (i ? ", " : "") + jsonNumber(plain[i].wallS);
        other += "]}";
        writeChromeTrace(args.layers, rec, other);
    }

    std::string out = "{\"workload\": " + jsonString(w.name);
    out += ", \"seed\": " + std::to_string(args.seed);
    out += ", \"mode\": ";
    out += traced ? "\"traced\"" : "\"untraced\"";
    out += ", \"smoke\": ";
    out += args.smoke ? "true" : "false";
    out += ", \"jobs\": " + std::to_string(jobs);
    out += ", \"passes\": " + std::to_string(plain.size());
    out += ", \"setup_reps\": " + std::to_string(setup.totalS.size());
    out += ", \"windows_per_traced_pass\": " +
           std::to_string(tracedPasses.empty()
                              ? 0
                              : probe.windows / tracedPasses.size());
    out += ", \"pass_s\": [";
    for (std::size_t i = 0; i < plain.size(); i++)
        out += (i ? ", " : "") + jsonNumber(plain[i].wallS);
    out += "]";
    out += ", \"correct\": ";
    out += errors.empty() ? "true" : "false";
    out += ", \"attempted\": " + std::to_string(attempted);
    out += ", \"failed\": " + std::to_string(failed);
    out += ", \"fingerprint\": " + jsonString(fpText);
    out += ", \"errors\": [";
    for (std::size_t i = 0; i < errors.size(); i++)
        out += (i ? ", " : "") + jsonString(errors[i]);
    out += "], \"metrics\": {";
    for (std::size_t i = 0; i < metrics.size(); i++) {
        out += (i ? ", " : "") + jsonString(metrics[i].name) +
               ": {\"value\": " + jsonNumber(metrics[i].value) +
               ", \"unit\": " + jsonString(metrics[i].unit) + "}";
    }
    out += "}, \"context\": " + contextJson() + "}";
    std::printf("%s\n", out.c_str());
    return 0;
}

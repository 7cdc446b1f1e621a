/**
 * @file
 * Shared plumbing for the figure-regeneration benches: aligned table
 * printing and CSV capture next to stdout, so every bench both shows
 * the paper-comparable series and leaves machine-readable data.
 */

#ifndef OENET_BENCH_BENCH_UTIL_HH
#define OENET_BENCH_BENCH_UTIL_HH

#include <algorithm>
#include <cerrno>
#include <climits>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include "common/csv.hh"
#include "common/log.hh"
#include "common/parallel.hh"
#include "common/stats.hh"
#include "core/sweep_runner.hh"
#include "network/topology.hh"
#include "trace/trace_sinks.hh"

namespace oenet::bench {

/** Command line shared by every figure bench. */
struct BenchArgs
{
    int jobs = 0;            ///< --jobs N; 0 = hardwareJobs()
    std::uint64_t seed = 1;  ///< --seed S; base seed for the sweep
    bool smoke = false;      ///< --smoke; tiny CI-sized run
    bool quiet = false;      ///< --quiet; suppress per-point progress
    std::string trace;       ///< --trace PATH; empty = no tracing
    TraceFormat traceFormat = TraceFormat::kJsonl; ///< --trace-format
    Cycle metricsInterval = 1000; ///< --metrics-interval N; must be > 0
    bool idleElision = true; ///< --idle-elision on|off (kernel scheduler)
    int shards = 0;          ///< --shards N; intra-run shards, 0 = auto
    bool leakage = false;    ///< --leakage on|off; thermal/leakage model

    // Crash safety (see DESIGN.md "Crash-safe sweeps").
    std::string journal;     ///< --journal PATH; append-only checkpoint
    bool resume = false;     ///< --resume; replay the journal first
    bool isolate = false;    ///< --isolate; fork each point
    std::uint64_t timeoutMs = 0;  ///< --timeout-ms N; absolute budget
    double timeoutFactor = 0.0;   ///< --timeout-factor X; vs median
    int maxRetries = 2;      ///< --max-retries N; per failing point

    // Fabric overrides; unset flags keep each bench's own defaults
    // (the paper's 8x8x8 mesh) so unflagged runs stay byte-identical.
    bool topologySet = false; ///< --topology was given
    TopologyKind topology = TopologyKind::kMesh;
    int meshX = 0;       ///< --mesh-x N; 0 = bench default
    int meshY = 0;       ///< --mesh-y N; 0 = bench default
    int clusterSize = 0; ///< --cluster C; 0 = bench default
    int fatTreeArity = 0; ///< --arity K; 0 = bench default
};

/** Parse a decimal unsigned flag value, rejecting garbage, trailing
 *  junk, negatives, and out-of-range numbers with a one-line error
 *  naming the flag. */
inline std::uint64_t
parseFlagUint(const char *prog, const char *flag, const char *text)
{
    errno = 0;
    char *end = nullptr;
    // strtoull silently wraps "-1"; reject signs up front.
    if (text[0] == '-' || text[0] == '+')
        fatal("%s: %s needs an unsigned number, got '%s'", prog, flag,
              text);
    unsigned long long v = std::strtoull(text, &end, 10);
    if (end == text || *end != '\0')
        fatal("%s: %s needs a number, got '%s'", prog, flag, text);
    if (errno == ERANGE)
        fatal("%s: %s value '%s' out of range", prog, flag, text);
    return v;
}

/** Parse a decimal int flag value in [@p lo, @p hi], rejecting
 *  garbage and out-of-range numbers with a one-line error. */
inline int
parseFlagInt(const char *prog, const char *flag, const char *text,
             int lo, int hi)
{
    errno = 0;
    char *end = nullptr;
    long v = std::strtol(text, &end, 10);
    if (end == text || *end != '\0')
        fatal("%s: %s needs a number, got '%s'", prog, flag, text);
    if (errno == ERANGE || v < lo || v > hi)
        fatal("%s: %s value '%s' out of range [%d, %d]", prog, flag,
              text, lo, hi);
    return static_cast<int>(v);
}

/** Parse a decimal floating-point flag value in [@p lo, @p hi]. */
inline double
parseFlagDouble(const char *prog, const char *flag, const char *text,
                double lo, double hi)
{
    errno = 0;
    char *end = nullptr;
    double v = std::strtod(text, &end);
    if (end == text || *end != '\0')
        fatal("%s: %s needs a number, got '%s'", prog, flag, text);
    if (errno == ERANGE || !(v >= lo && v <= hi))
        fatal("%s: %s value '%s' out of range [%g, %g]", prog, flag,
              text, lo, hi);
    return v;
}

/** Parse --jobs / --seed / --smoke / --quiet / --trace /
 *  --trace-format / --metrics-interval / --help. Exits on --help or an
 *  unknown flag. @p default_seed is the bench's historical seed, kept
 *  as the default so unflagged runs stay reproducible across
 *  sessions. */
inline BenchArgs
parseBenchArgs(int argc, char **argv, std::uint64_t default_seed)
{
    BenchArgs args;
    args.seed = default_seed;
    for (int i = 1; i < argc; i++) {
        const char *a = argv[i];
        auto value = [&]() -> const char * {
            if (i + 1 >= argc)
                fatal("%s: %s needs a value", argv[0], a);
            return argv[++i];
        };
        if (std::strcmp(a, "--jobs") == 0 || std::strcmp(a, "-j") == 0) {
            args.jobs = parseFlagInt(argv[0], a, value(), 0, 4096);
        } else if (std::strcmp(a, "--seed") == 0) {
            args.seed = parseFlagUint(argv[0], a, value());
        } else if (std::strcmp(a, "--smoke") == 0) {
            args.smoke = true;
        } else if (std::strcmp(a, "--quiet") == 0) {
            args.quiet = true;
        } else if (std::strcmp(a, "--trace") == 0) {
            args.trace = value();
        } else if (std::strcmp(a, "--trace-format") == 0) {
            args.traceFormat = parseTraceFormat(value());
        } else if (std::strcmp(a, "--metrics-interval") == 0) {
            args.metricsInterval =
                parseFlagUint(argv[0], a, value());
        } else if (std::strcmp(a, "--topology") == 0) {
            args.topology = parseTopologyKind(value());
            args.topologySet = true;
        } else if (std::strcmp(a, "--mesh-x") == 0) {
            args.meshX = parseFlagInt(argv[0], a, value(), 1, 1024);
        } else if (std::strcmp(a, "--mesh-y") == 0) {
            args.meshY = parseFlagInt(argv[0], a, value(), 1, 1024);
        } else if (std::strcmp(a, "--cluster") == 0) {
            args.clusterSize =
                parseFlagInt(argv[0], a, value(), 1, 1024);
        } else if (std::strcmp(a, "--arity") == 0) {
            args.fatTreeArity =
                parseFlagInt(argv[0], a, value(), 2, 64);
        } else if (std::strcmp(a, "--shards") == 0) {
            args.shards = parseFlagInt(argv[0], a, value(), 0, 256);
        } else if (std::strcmp(a, "--leakage") == 0) {
            const char *v = value();
            if (std::strcmp(v, "on") == 0 || std::strcmp(v, "1") == 0) {
                args.leakage = true;
            } else if (std::strcmp(v, "off") == 0 ||
                       std::strcmp(v, "0") == 0) {
                args.leakage = false;
            } else {
                fatal("%s: %s needs on|off, got '%s'", argv[0], a, v);
            }
        } else if (std::strcmp(a, "--journal") == 0) {
            args.journal = value();
        } else if (std::strcmp(a, "--resume") == 0) {
            args.resume = true;
        } else if (std::strcmp(a, "--isolate") == 0) {
            args.isolate = true;
        } else if (std::strcmp(a, "--timeout-ms") == 0) {
            args.timeoutMs = parseFlagUint(argv[0], a, value());
        } else if (std::strcmp(a, "--timeout-factor") == 0) {
            args.timeoutFactor =
                parseFlagDouble(argv[0], a, value(), 1.0, 1e6);
        } else if (std::strcmp(a, "--max-retries") == 0) {
            args.maxRetries = parseFlagInt(argv[0], a, value(), 0, 100);
        } else if (std::strcmp(a, "--idle-elision") == 0) {
            const char *v = value();
            if (std::strcmp(v, "on") == 0 || std::strcmp(v, "1") == 0) {
                args.idleElision = true;
            } else if (std::strcmp(v, "off") == 0 ||
                       std::strcmp(v, "0") == 0) {
                args.idleElision = false;
            } else {
                fatal("%s: %s needs on|off, got '%s'", argv[0], a, v);
            }
        } else if (std::strcmp(a, "--help") == 0 ||
                   std::strcmp(a, "-h") == 0) {
            std::printf(
                "usage: %s [--jobs N] [--seed S] [--smoke] [--quiet]\n"
                "          [--trace PATH [--trace-format jsonl|chrome]\n"
                "           [--metrics-interval N]]\n"
                "  --jobs N   worker threads (default: the CPUs this "
                "process may use, %d here;\n"
                "             1 = serial; results identical at any N)\n"
                "  --seed S   base seed for derived per-point streams\n"
                "  --smoke    tiny run for CI (fewer points, short "
                "protocol)\n"
                "  --quiet    no per-point progress lines\n"
                "  --trace PATH\n"
                "             write an event trace of the bench's "
                "designated point\n"
                "  --trace-format jsonl|chrome\n"
                "             trace flavor (default jsonl; chrome loads "
                "in ui.perfetto.dev)\n"
                "  --metrics-interval N\n"
                "             power-snapshot period in cycles for the "
                "traced run\n"
                "             (default 1000; must be > 0 — omit "
                "--trace to disable)\n"
                "  --leakage on|off\n"
                "             sub-threshold/gate leakage with per-link "
                "thermal feedback\n"
                "             (default off; off keeps outputs "
                "byte-identical to older builds)\n"
                "  --shards N shard one run across N threads; 0 = "
                "auto (default):\n"
                "             one shard per 64 routers, at most the "
                "run's share of the\n"
                "             cores (8x8 stays serial); outputs "
                "byte-identical at any N\n"
                "  --idle-elision on|off\n"
                "             park quiescent components instead of "
                "ticking them\n"
                "             (default on; outputs are byte-identical "
                "either way)\n"
                "  --journal PATH\n"
                "             append a CRC-guarded checkpoint record "
                "per finished point\n"
                "  --resume   replay PATH's valid records and run only "
                "the rest\n"
                "             (manifests come out byte-identical to an "
                "uninterrupted run)\n"
                "  --isolate  fork each point into its own process "
                "(a crash or hang\n"
                "             loses one point, not the sweep)\n"
                "  --timeout-ms N\n"
                "             kill an isolated point after N ms and "
                "retry it\n"
                "  --timeout-factor X\n"
                "             like --timeout-ms, but X times the "
                "running median point time\n"
                "  --max-retries N\n"
                "             attempts beyond the first before a point "
                "is recorded failed\n"
                "             (default 2; backoff doubles between "
                "attempts)\n"
                "  --topology mesh|torus|cmesh|fattree\n"
                "             fabric (default: the bench's own, the "
                "paper's 8x8x8 mesh)\n"
                "  --mesh-x N / --mesh-y N\n"
                "             router grid dimensions (mesh family)\n"
                "  --cluster C\n"
                "             nodes per router; cmesh needs a perfect "
                "square\n"
                "  --arity K  fat-tree switch radix (even; k^3/4 "
                "nodes)\n",
                argv[0], hardwareJobs());
            std::exit(0);
        } else {
            fatal("%s: unknown flag '%s' (try --help)", argv[0], a);
        }
    }
    return args;
}

/** Runner options wired to the standard progress printer and, when
 *  --trace was given, a sink factory writing to the requested path. */
inline SweepRunner::Options
runnerOptions(const BenchArgs &args)
{
    SweepRunner::Options opts;
    opts.jobs = args.jobs;
    opts.baseSeed = args.seed;
    opts.journalPath = args.journal;
    opts.resume = args.resume;
    opts.isolate = args.isolate;
    opts.timeoutMs = args.timeoutMs;
    opts.timeoutFactor = args.timeoutFactor;
    opts.maxRetries = args.maxRetries;
    if (!args.quiet) {
        opts.progress = [](const SweepOutcome &o, std::size_t done,
                           std::size_t total) {
            std::printf("  [%zu/%zu] %s (%.1fs)\n", done, total,
                        o.label.c_str(), o.wallMs / 1000.0);
            std::fflush(stdout);
        };
    }
    if (!args.trace.empty()) {
        std::string path = args.trace;
        TraceFormat format = args.traceFormat;
        opts.traceFactory =
            [path, format](const std::string &) {
                return makeTraceSink(path, format);
            };
    }
    return opts;
}

/** Stamp kernel-level flags (--idle-elision) and fabric overrides
 *  (--topology / --mesh-x / --mesh-y / --cluster / --arity) onto every
 *  point's SystemConfig, then validate the result so a bad combination
 *  dies with SystemConfig's actionable message before any point runs.
 *  Call after assembling a points vector, before handing it to the
 *  runner. Works on SweepPoint and TimelinePoint alike. */
inline void
applyFabricOverrides(const BenchArgs &args, SystemConfig &config)
{
    if (args.topologySet)
        config.topology = args.topology;
    if (args.meshX > 0)
        config.meshX = args.meshX;
    if (args.meshY > 0)
        config.meshY = args.meshY;
    if (args.clusterSize > 0)
        config.clusterSize = args.clusterSize;
    if (args.fatTreeArity > 0)
        config.fatTreeArity = args.fatTreeArity;
}

template <typename Point>
inline void
applyKernelArgs(const BenchArgs &args, std::vector<Point> &points)
{
    for (auto &p : points) {
        p.config.idleElision = args.idleElision;
        p.config.shards = args.shards;
        p.config.thermal.enabled = args.leakage;
        // Routed through the config so --metrics-interval 0 dies in
        // validate() with an actionable message instead of silently
        // dropping the snapshot series.
        p.config.metricsIntervalCycles = args.metricsInterval;
        applyFabricOverrides(args, p.config);
        p.config.validate();
    }
}

/** Mark the point at @p index for tracing when --trace was given.
 *  Each bench designates exactly one point — the sink factory writes
 *  every traced point to the single --trace path. Works on SweepPoint
 *  and TimelinePoint vectors alike. */
template <typename Point>
inline void
markTracePoint(const BenchArgs &args, std::vector<Point> &points,
               std::size_t index)
{
    if (args.trace.empty())
        return;
    if (index >= points.size())
        fatal("markTracePoint: index %zu out of range (%zu points)",
              index, points.size());
    points[index].trace = true;
    std::printf("tracing '%s' -> %s (%s, metrics every %llu cycles)\n",
                points[index].label.c_str(), args.trace.c_str(),
                traceFormatName(args.traceFormat),
                static_cast<unsigned long long>(args.metricsInterval));
}

/** Print one FAILED line per failed outcome and return how many
 *  failed. */
inline std::size_t
printFailures(const std::vector<SweepOutcome> &outcomes)
{
    std::size_t failed = 0;
    for (const SweepOutcome &o : outcomes) {
        if (!o.ok()) {
            failed++;
            std::printf("  FAILED [%zu] %s after %d attempt(s): %s\n",
                        o.index, o.label.c_str(), o.attempts,
                        o.error.c_str());
        }
    }
    return failed;
}

/** The shard counts the executed points ran with (auto resolved), as
 *  one stdout line; the count is never written to a file. Works on
 *  SweepOutcome and TimelineOutcome vectors alike. */
template <typename Outcome>
inline void
printShards(const std::vector<Outcome> &outcomes)
{
    int lo = 0;
    int hi = 0;
    for (const SweepOutcome &o : outcomes) {
        if (o.shards == 0)
            continue; // replayed from the journal, not run
        lo = lo == 0 ? o.shards : std::min(lo, o.shards);
        hi = std::max(hi, o.shards);
    }
    if (hi == 0)
        return;
    if (lo == hi)
        std::printf("shards: %d per point\n", hi);
    else
        std::printf("shards: %d-%d per point\n", lo, hi);
}

/** One-line runner telemetry (threads, wall time, speedup) and the
 *  shard line, plus the per-status breakdown when points were resumed
 *  or failed. */
inline void
printReport(const SweepReport &report)
{
    std::printf("sweep: %zu points on %d thread%s in %.1fs "
                "(points sum %.1fs, speedup %.2fx)\n",
                report.outcomes.size(), report.jobs,
                report.jobs == 1 ? "" : "s", report.wallMs / 1000.0,
                report.pointWallMs.sum() / 1000.0, report.speedup());
    printShards(report.outcomes);
    if (report.resumedPoints > 0) {
        std::printf("sweep: %zu point(s) replayed from the journal\n",
                    report.resumedPoints);
    }
    std::size_t failed = report.failedPoints();
    if (failed > 0) {
        std::printf("sweep: %zu ok, %zu FAILED\n",
                    report.outcomes.size() - failed, failed);
        printFailures(report.outcomes);
    }
}

/** Process exit code for a finished sweep: 0 when every point is ok,
 *  1 when any point exhausted its retries (that point's manifest row
 *  survives, marked by the status column — the sweep's other points
 *  are intact and the operator sees the failure in $?). */
inline int
exitStatus(const SweepReport &report)
{
    return report.allOk() ? 0 : 1;
}

/** Same for timeline sweeps, printing what failed (timeline benches
 *  have no SweepReport to carry the breakdown). */
inline int
exitStatus(const std::vector<TimelineOutcome> &outcomes)
{
    return printFailures(timelineRollups(outcomes)) > 0 ? 1 : 0;
}

/** Column-aligned table that mirrors itself into a CSV file. */
class Table
{
  public:
    Table(std::string title, std::string csv_path,
          std::vector<std::string> columns)
        : title_(std::move(title)), csv_(csv_path),
          columns_(std::move(columns))
    {
        csv_.header(columns_);
    }

    void row(const std::vector<std::string> &cells)
    {
        rows_.push_back(cells);
        csv_.row(cells);
    }

    void rowNumeric(const std::vector<double> &cells, int precision = 4)
    {
        std::vector<std::string> s;
        s.reserve(cells.size());
        for (double v : cells)
            s.push_back(formatDouble(v, precision));
        row(s);
    }

    /** Print the accumulated table to stdout. */
    void print() const
    {
        std::printf("\n== %s ==\n", title_.c_str());
        printRow(columns_);
        for (const auto &r : rows_)
            printRow(r);
        std::printf("   (csv: %s)\n", csv_.path().c_str());
    }

  private:
    void printRow(const std::vector<std::string> &cells) const
    {
        for (const auto &c : cells)
            std::printf("%14s", c.c_str());
        std::printf("\n");
    }

    std::string title_;
    CsvWriter csv_;
    std::vector<std::string> columns_;
    std::vector<std::vector<std::string>> rows_;
};

/** Banner naming the paper artifact a bench regenerates. */
inline void
banner(const char *artifact, const char *description)
{
    std::printf("==========================================================\n");
    std::printf("oenet bench: %s\n%s\n", artifact, description);
    std::printf("==========================================================\n");
}

} // namespace oenet::bench

#endif // OENET_BENCH_BENCH_UTIL_HH

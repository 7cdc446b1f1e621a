/**
 * @file
 * SweepRunner — the parallel sweep-execution engine behind the
 * benchmark harness.
 *
 * Every evaluation artifact of the paper (Figs. 5-7, Tables 2-3) is a
 * sweep of *independent* simulations: each point is a self-contained
 * (SystemConfig, TrafficSpec, RunProtocol) triple that builds its own
 * PoeSystem and shares nothing with its neighbours. The runner shards
 * those points across a worker pool while keeping results bit-identical
 * at any thread count:
 *
 *  - every point draws its traffic seed from
 *    deriveStreamSeed(baseSeed, seedKey) — a pure function of the sweep
 *    parameters, never of scheduling (points that must share a common
 *    random stream, e.g. a power-aware run and the baseline it is
 *    normalized against, set the same seedKey);
 *  - workers claim point *indices* from an atomic counter but write
 *    results into a pre-sized slot per point and accumulate run
 *    statistics into per-worker accumulators merged at join — there is
 *    no shared mutable state between in-flight points;
 *  - --jobs 1 runs the points inline on the calling thread, exactly
 *    the pre-runner serial behavior;
 *  - a point left at auto shards (sim.shards = 0) resolves against
 *    hardwareJobs() / jobs cores, so the pool's threads times each
 *    point's shards never exceed the machine (the shard count never
 *    changes a byte, docs/DETERMINISM.md §1).
 *
 * One executor runs every sweep. run() hands it sweep points;
 * runTimelines() hands it timeline points staged as sweep points,
 * keeping only their per-bin series beside the outcomes. Seeding,
 * attempts and retries, the audit verdict, error strings and progress
 * are therefore the same for both point kinds.
 *
 * The manifest (JSON or CSV) records per point: parameters, the derived
 * seed, the point's status, and the full metrics record. Wall-clock
 * times are kept in the in-memory SweepOutcome/SweepReport for operator
 * feedback but are deliberately excluded from manifests, which must be
 * byte-identical for identical (points, baseSeed) at any --jobs value.
 *
 * Crash safety (DESIGN.md §13). Long sweeps survive partial failure
 * instead of dying with it:
 *
 *  - journal: with Options::journalPath set, every completed outcome
 *    is appended to a CRC-guarded JSONL checkpoint file the moment it
 *    finishes (core/sweep_journal.hh); Options::resume replays the
 *    valid records, skips those points, and — because seeds derive
 *    from (baseSeed, seedKey), never scheduling — the final manifest
 *    is byte-identical to an uninterrupted run at any --jobs;
 *  - watchdog + retry: a per-point wall-clock budget (absolute
 *    timeoutMs, or timeoutFactor x the running median of completed
 *    points); a point that exceeds it or dies is retried with bounded
 *    exponential backoff up to maxRetries, then recorded as a failed
 *    outcome (status column) so the sweep completes gracefully;
 *  - isolation: with Options::isolate, each point runs in a forked
 *    child returning its metrics over a pipe (common/proc.hh), so a
 *    segfault or OOM in one degenerate config cannot take down the
 *    driver; the watchdog kills and reaps hung children. The deadline
 *    is only enforceable on isolated points — without isolate a hung
 *    in-process point cannot be safely interrupted.
 *
 * Journal, isolation and the watchdog apply to run() only. A timeline
 * point's per-bin series is neither a journal record nor pipe
 * payload, so runTimelines() runs in process without them (and says
 * so once).
 *
 * All manifest/CSV writers publish atomically (write-temp + fsync +
 * rename, common/fs.hh): an interrupted run never leaves a torn file
 * where a previous good one stood.
 */

#ifndef OENET_CORE_SWEEP_RUNNER_HH
#define OENET_CORE_SWEEP_RUNNER_HH

#include <functional>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "core/sweeps.hh"

namespace oenet {

/** seedKey sentinel: derive from the point's position in the sweep. */
inline constexpr std::uint64_t kSeedKeyFromIndex = ~0ull;

/** One self-contained simulation in a sweep. */
struct SweepPoint
{
    /** Human-readable identity, e.g. "rate=2.0/pa_5to10". */
    std::string label;

    /** Numeric parameters this point varies, for the manifest. */
    std::vector<std::pair<std::string, double>> params;

    SystemConfig config;
    TrafficSpec spec;
    RunProtocol protocol;

    /** Points with equal seedKey get the same derived stream — use for
     *  common-random-number pairs (a run and its baseline). Default:
     *  the point's index, i.e. an independent stream per point. */
    std::uint64_t seedKey = kSeedKeyFromIndex;

    /** When true and Options::traceFactory is set, the default run
     *  body attaches an event-trace sink to this point's system.
     *  Custom PointFn bodies receive the flag but must honor it
     *  themselves. */
    bool trace = false;
};

/** Terminal status of one sweep point. */
enum class PointStatus
{
    kOk,     ///< ran to completion; metrics are valid
    kFailed, ///< exhausted retries (crash/timeout/exception/audit)
};

/** "ok" / "failed" — the manifest status column's vocabulary. */
const char *pointStatusName(PointStatus status);

/** Structured result record for one executed sweep point. */
struct SweepOutcome
{
    std::size_t index = 0;
    std::string label;
    std::vector<std::pair<std::string, double>> params;
    std::uint64_t seed = 0; ///< derived stream seed actually used
    PointStatus status = PointStatus::kOk;
    int attempts = 1;  ///< executions it took (1 = no retries)
    std::string error; ///< failure diagnostic; never in manifests
    RunMetrics metrics; ///< zero-initialized when status == kFailed
    double wallMs = 0.0; ///< informational; never written to manifests
    /** Shard domains the point ran with (sim.shards after auto
     *  resolution); 0 for a point replayed from the journal. For the
     *  stdout report only: never in manifests or the journal. */
    int shards = 0;

    bool ok() const { return status == PointStatus::kOk; }
};

/** A whole executed sweep: per-point outcomes plus runner telemetry. */
struct SweepReport
{
    std::vector<SweepOutcome> outcomes;
    int jobs = 1;          ///< worker threads actually used
    double wallMs = 0.0;   ///< whole-sweep wall time
    RunningStat pointWallMs; ///< per-point wall times (merged at join)
    std::size_t resumedPoints = 0; ///< points replayed from the journal

    /** Serial-equivalent time / actual time (1.0 when jobs == 1). */
    double speedup() const
    {
        return wallMs > 0.0 ? pointWallMs.sum() / wallMs : 0.0;
    }

    /** Outcomes whose status is kFailed. */
    std::size_t failedPoints() const;

    /** True when every point completed ok (a sweep's exit-code gate). */
    bool allOk() const { return failedPoints() == 0; }
};

struct TimelinePoint;
struct TimelineOutcome;

class SweepRunner
{
  public:
    /** Called after each point completes; @p done counts finished
     *  points (1-based). Serialized by the runner — no locking needed
     *  inside. Completion order is scheduling-dependent; anything
     *  deterministic must come from SweepReport, not from here. */
    using ProgressFn = std::function<void(
        const SweepOutcome &outcome, std::size_t done, std::size_t total)>;

    /** Custom per-point body: receives the point and its derived seed,
     *  returns the metrics to record. */
    using PointFn = std::function<RunMetrics(const SweepPoint &point,
                                             std::uint64_t seed)>;

    struct Options
    {
        int jobs = 0; ///< worker threads; <= 0 means hardwareJobs()
        /** Each point's TrafficSpec::seed is replaced with the stream
         *  seed derived from (baseSeed, seedKey). */
        std::uint64_t baseSeed = 1;

        // Crash safety (see the file comment).

        /** Append-only checkpoint journal; empty disables. */
        std::string journalPath;
        /** Replay valid journal records and skip those points. The
         *  journal header must match (baseSeed, point count) or the
         *  runner refuses with an actionable fatal(). */
        bool resume = false;
        /** Run each point in a forked child (fork/pipe isolation). */
        bool isolate = false;
        /** Absolute per-point wall-clock budget, ms; 0 disables. Only
         *  enforced on isolated points. */
        double timeoutMs = 0.0;
        /** Median-based budget: timeoutFactor x the running median of
         *  completed point wall times (once >= 3 points finished;
         *  never below 100 ms). 0 disables. An absolute timeoutMs
         *  takes precedence. Only enforced on isolated points. */
        double timeoutFactor = 0.0;
        /** Extra attempts after a point's first failure. */
        int maxRetries = 2;
        /** First retry backoff, doubled per attempt, capped at 5 s.
         *  Exposed so tests do not sleep their wall-clock away. */
        double retryBackoffMs = 100.0;

        ProgressFn progress;
        /** Makes the event-trace sink for each trace-marked point
         *  (argument: the point's label). Null (the default) disables
         *  tracing; benches mark exactly one point per run so a single
         *  --trace path never collides. The sink lives for exactly one
         *  point's system — trace output is untouched by scheduling and
         *  therefore identical at any jobs count. */
        std::function<std::unique_ptr<TraceSink>(const std::string &label)>
            traceFactory;
    };

    SweepRunner() = default;
    explicit SweepRunner(Options options);

    /** Run every point through the standard warmup/measure/drain
     *  experiment protocol. */
    SweepReport run(const std::vector<SweepPoint> &points) const;

    /** Run every point through @p fn (e.g. a paired or custom run). */
    SweepReport run(const std::vector<SweepPoint> &points,
                    const PointFn &fn) const;

    /** Seed the point at @p index will be given. */
    std::uint64_t pointSeed(const SweepPoint &point,
                            std::size_t index) const;

    const Options &options() const { return options_; }

  private:
    /** Attempt body that also gets the point's index, so a caller can
     *  keep per-point output beside the metrics. */
    using IndexedFn = std::function<RunMetrics(
        std::size_t index, const SweepPoint &point, std::uint64_t seed)>;

    /** The one point loop: journal and resume, seeding, attempts with
     *  retry and backoff, the audit verdict, progress. */
    SweepReport execute(const std::vector<SweepPoint> &points,
                        const IndexedFn &fn) const;

    /** The standard body: attach the sink a trace-marked point asks
     *  for, then runExperiment (binned into @p series when set). */
    RunMetrics runPoint(const SweepPoint &point,
                        TimelineResult *series) const;

    friend std::vector<TimelineOutcome>
    runTimelines(const SweepRunner &runner,
                 const std::vector<TimelinePoint> &points);

    Options options_;
};

// ---------------------------------------------------------------------
// Timeline sweeps (Figs. 6-7): per-point time series instead of a
// single metrics rollup.
// ---------------------------------------------------------------------

struct TimelinePoint
{
    std::string label;
    SystemConfig config;
    TrafficSpec spec;
    Cycle total = 0;
    Cycle bin = 0;
    Cycle warmup = 0;
    std::uint64_t seedKey = kSeedKeyFromIndex;
    bool trace = false; ///< see SweepPoint::trace
};

/** A sweep outcome plus the point's per-bin series. */
struct TimelineOutcome : SweepOutcome
{
    TimelineResult timeline; ///< empty series when status == kFailed
};

/** Run each point as runExperiment over RunProtocol{warmup, total}
 *  with its measure phase binned, through SweepRunner::run's executor:
 *  same seeds, retries, audit verdict and progress as a sweep point.
 *  The journal, resume, isolation and timeout options do not apply
 *  (see the file comment); a runner that sets them draws one warn()
 *  naming what was dropped. */
std::vector<TimelineOutcome>
runTimelines(const SweepRunner &runner,
             const std::vector<TimelinePoint> &points);

// ---------------------------------------------------------------------
// Manifests
// ---------------------------------------------------------------------

/** Render the sweep manifest as deterministic JSON: sweep name, base
 *  seed, and per point {index, label, seed, status, params, metrics}.
 *  Byte-identical for identical outcomes regardless of thread count. */
std::string sweepManifestJson(const std::string &sweep_name,
                              std::uint64_t base_seed,
                              const std::vector<SweepOutcome> &outcomes);

/** Write sweepManifestJson() to @p path atomically (write-temp +
 *  fsync + rename); fatal() with errno context on I/O failure. */
void writeSweepManifest(const std::string &path,
                        const std::string &sweep_name,
                        std::uint64_t base_seed,
                        const std::vector<SweepOutcome> &outcomes);

/** Write the same records as CSV (param columns from the first point;
 *  one metrics column per RunMetrics field), atomically. */
void writeSweepManifestCsv(const std::string &path,
                           const std::vector<SweepOutcome> &outcomes);

/**
 * The watchdog budget for the next point attempt, in ms, given the
 * options and the wall times of the points completed so far: the
 * absolute timeoutMs when set, else timeoutFactor x median once three
 * points have finished (floored at 100 ms), else 0 (no budget).
 * Exposed for tests; median-based budgets are intentionally advisory
 * early in a sweep, when no baseline exists yet.
 */
double sweepPointBudgetMs(const SweepRunner::Options &options,
                          std::vector<double> completed_wall_ms);

/** Timeline outcomes without their series, for the manifest writers. */
inline std::vector<SweepOutcome>
timelineRollups(const std::vector<TimelineOutcome> &outcomes)
{
    return {outcomes.begin(), outcomes.end()};
}

} // namespace oenet

#endif // OENET_CORE_SWEEP_RUNNER_HH

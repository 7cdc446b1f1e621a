#include "core/sweep_runner.hh"

#include <algorithm>
#include <chrono>
#include <cstring>
#include <mutex>
#include <thread>
#include <type_traits>

#include "common/csv.hh"
#include "common/fs.hh"
#include "common/json.hh"
#include "common/log.hh"
#include "common/parallel.hh"
#include "common/proc.hh"
#include "common/rng.hh"
#include "core/sweep_journal.hh"

namespace oenet {

namespace {

double
elapsedMs(std::chrono::steady_clock::time_point since)
{
    return std::chrono::duration<double, std::milli>(
               std::chrono::steady_clock::now() - since)
        .count();
}

/** The manifest's metrics fields, in one place so the JSON and CSV
 *  writers cannot drift apart. */
std::vector<std::pair<const char *, double>>
metricsFields(const RunMetrics &m)
{
    return {
        {"avg_latency", m.avgLatency},
        {"p50_latency", m.p50Latency},
        {"p95_latency", m.p95Latency},
        {"max_latency", m.maxLatency},
        {"packets_measured", static_cast<double>(m.packetsMeasured)},
        {"avg_power_mw", m.avgPowerMw},
        {"baseline_power_mw", m.baselinePowerMw},
        {"normalized_power", m.normalizedPower},
        {"power_latency_product", m.powerLatencyProduct},
        {"throughput_flits_per_cycle", m.throughputFlitsPerCycle},
        {"offered_rate", m.offeredRate},
        {"packets_injected", static_cast<double>(m.packetsInjected)},
        {"packets_ejected", static_cast<double>(m.packetsEjected)},
        {"drained", m.drained ? 1.0 : 0.0},
        {"transitions", static_cast<double>(m.transitions)},
        {"decisions_up", static_cast<double>(m.decisionsUp)},
        {"decisions_down", static_cast<double>(m.decisionsDown)},
        {"optical_stalls", static_cast<double>(m.opticalStalls)},
        {"measured_cycles", static_cast<double>(m.measuredCycles)},
    };
}

// The isolation pipe carries RunMetrics as raw bytes.
static_assert(std::is_trivially_copyable_v<RunMetrics>,
              "RunMetrics must stay trivially copyable: isolated sweep "
              "points ship it over a pipe as raw bytes");

/** One execution attempt of one sweep point. */
struct Attempt
{
    bool ok = false;
    bool retryable = true;
    RunMetrics metrics;
    std::string error;
};

Attempt
runAttempt(const std::function<RunMetrics()> &body, bool isolate,
           double budget_ms)
{
    Attempt a;
    if (isolate) {
        ChildResult r = runInChild(
            [&](int write_fd) {
                RunMetrics m = body();
                writeAll(write_fd, &m, sizeof(m));
            },
            budget_ms);
        switch (r.status) {
          case ChildResult::Status::kOk:
            if (r.payload.size() != sizeof(RunMetrics)) {
                a.error = "isolated child returned a short metrics "
                          "payload (" +
                          std::to_string(r.payload.size()) + " of " +
                          std::to_string(sizeof(RunMetrics)) + " bytes)";
                return a;
            }
            std::memcpy(&a.metrics, r.payload.data(), sizeof(RunMetrics));
            break;
          case ChildResult::Status::kTimeout:
            a.error = "watchdog: point exceeded its " +
                      jsonNumber(budget_ms) +
                      " ms budget; child killed";
            return a;
          default:
            a.error = "isolated child failed: " + r.describe();
            return a;
        }
    } else {
        try {
            a.metrics = body();
        } catch (const std::exception &e) {
            a.error = std::string("point body threw: ") + e.what();
            return a;
        } catch (...) {
            a.error = "point body threw a non-standard exception";
            return a;
        }
    }

    if (a.metrics.auditFailures > 0) {
        // Deterministic by construction -- retrying cannot change it.
        a.error = "conservation audit failed (" +
                  std::to_string(a.metrics.auditFailures) +
                  " violation(s))";
        a.retryable = false;
        return a;
    }
    a.ok = true;
    return a;
}

} // namespace

const char *
pointStatusName(PointStatus status)
{
    return status == PointStatus::kOk ? "ok" : "failed";
}

std::size_t
SweepReport::failedPoints() const
{
    std::size_t failed = 0;
    for (const SweepOutcome &o : outcomes)
        if (!o.ok())
            failed++;
    return failed;
}

double
sweepPointBudgetMs(const SweepRunner::Options &options,
                   std::vector<double> completed_wall_ms)
{
    if (options.timeoutMs > 0.0)
        return options.timeoutMs;
    if (options.timeoutFactor <= 0.0 || completed_wall_ms.size() < 3)
        return 0.0;
    auto mid = completed_wall_ms.begin() +
               static_cast<std::ptrdiff_t>(completed_wall_ms.size() / 2);
    std::nth_element(completed_wall_ms.begin(), mid,
                     completed_wall_ms.end());
    return std::max(100.0, options.timeoutFactor * *mid);
}

SweepRunner::SweepRunner(Options options) : options_(std::move(options))
{
}

std::uint64_t
SweepRunner::pointSeed(const SweepPoint &point, std::size_t index) const
{
    std::uint64_t key = point.seedKey == kSeedKeyFromIndex
                            ? static_cast<std::uint64_t>(index)
                            : point.seedKey;
    return deriveStreamSeed(options_.baseSeed, key);
}

RunMetrics
SweepRunner::runPoint(const SweepPoint &point,
                      TimelineResult *series) const
{
    TraceOptions trace;
    std::unique_ptr<TraceSink> sink;
    if (point.trace && options_.traceFactory) {
        sink = options_.traceFactory(point.label);
        trace.sink = sink.get();
    }
    return runExperiment(point.config, point.spec, point.protocol, trace,
                         series);
}

SweepReport
SweepRunner::run(const std::vector<SweepPoint> &points) const
{
    return execute(points, [this](std::size_t, const SweepPoint &point,
                                  std::uint64_t) {
        return runPoint(point, nullptr);
    });
}

SweepReport
SweepRunner::run(const std::vector<SweepPoint> &points,
                 const PointFn &fn) const
{
    return execute(points, [&fn](std::size_t, const SweepPoint &point,
                                 std::uint64_t seed) {
        return fn(point, seed);
    });
}

SweepReport
SweepRunner::execute(const std::vector<SweepPoint> &points,
                     const IndexedFn &fn) const
{
    SweepReport report;
    report.jobs = effectiveJobs(options_.jobs, points.size());
    report.outcomes.resize(points.size());

    // ---- Journal / resume setup -------------------------------------
    if (options_.resume && options_.journalPath.empty())
        fatal("sweep: --resume requires a --journal path");

    std::vector<char> replayed(points.size(), 0);
    SweepJournal journal;
    if (!options_.journalPath.empty()) {
        SweepJournal::Header header;
        header.baseSeed = options_.baseSeed;
        header.points = points.size();

        std::size_t keepBytes = 0;
        if (options_.resume) {
            SweepJournal::Loaded loaded =
                SweepJournal::load(options_.journalPath);
            if (loaded.exists && loaded.hasHeader) {
                if (loaded.header.baseSeed != header.baseSeed ||
                    loaded.header.points != header.points) {
                    fatal("sweep journal '%s' belongs to a different "
                          "sweep (journal: base_seed=%llu points=%llu; "
                          "this run: base_seed=%llu points=%zu) -- "
                          "refusing to resume",
                          options_.journalPath.c_str(),
                          static_cast<unsigned long long>(
                              loaded.header.baseSeed),
                          static_cast<unsigned long long>(
                              loaded.header.points),
                          static_cast<unsigned long long>(header.baseSeed),
                          points.size());
                }
                if (loaded.droppedLines > 0) {
                    warn("sweep journal '%s': discarded %zu corrupt or "
                         "torn trailing line(s); those points re-run",
                         options_.journalPath.c_str(),
                         loaded.droppedLines);
                }
                for (SweepOutcome &o : loaded.outcomes) {
                    if (o.index >= points.size() || replayed[o.index]) {
                        fatal("sweep journal '%s': record for point %zu "
                              "is out of range or duplicated -- refusing "
                              "to resume",
                              options_.journalPath.c_str(), o.index);
                    }
                    const SweepPoint &point = points[o.index];
                    std::uint64_t seed = pointSeed(point, o.index);
                    if (o.label != point.label || o.seed != seed) {
                        fatal("sweep journal '%s': record %zu does not "
                              "match this sweep (journal: '%s' seed=%llu; "
                              "live: '%s' seed=%llu) -- refusing to "
                              "resume",
                              options_.journalPath.c_str(), o.index,
                              o.label.c_str(),
                              static_cast<unsigned long long>(o.seed),
                              point.label.c_str(),
                              static_cast<unsigned long long>(seed));
                    }
                    replayed[o.index] = 1;
                    o.params = point.params; // not journaled; from live
                    report.outcomes[o.index] = std::move(o);
                    report.resumedPoints++;
                }
                keepBytes = loaded.validBytes;
            } else if (loaded.exists) {
                warn("sweep journal '%s' has no valid header; starting "
                     "a fresh journal",
                     options_.journalPath.c_str());
            }
            if (report.resumedPoints > 0) {
                inform("sweep: resumed %zu of %zu point(s) from '%s'",
                       report.resumedPoints, points.size(),
                       options_.journalPath.c_str());
            }
        }
        journal.open(options_.journalPath, header, keepBytes);
    }

    const bool wantWatchdog =
        options_.timeoutMs > 0.0 || options_.timeoutFactor > 0.0;
    if (wantWatchdog && !options_.isolate) {
        warn("sweep: per-point timeouts are only enforceable with "
             "--isolate (an in-process point cannot be safely killed); "
             "running without a watchdog");
    }
    const int maxAttempts = 1 + std::max(0, options_.maxRetries);
    // Auto-sharded points split the machine with the pool, so jobs x
    // shards never exceeds it. Resolved here, before the first attempt,
    // so an --isolate child inherits the share.
    const int coresPerPoint = std::max(1, hardwareJobs() / report.jobs);

    // ---- Execution ---------------------------------------------------
    auto sweepStart = std::chrono::steady_clock::now();
    std::vector<RunningStat> workerWallMs(
        static_cast<std::size_t>(report.jobs));
    std::mutex progressMutex;
    std::size_t done = report.resumedPoints;
    std::vector<double> completedWallMs;

    parallelFor(
        points.size(), report.jobs,
        [&](std::size_t i, int worker) {
            if (replayed[i])
                return;
            const SweepPoint &point = points[i];
            std::uint64_t seed = pointSeed(point, i);

            SweepPoint staged = point;
            staged.spec.seed = seed;
            staged.config.shards =
                staged.config.resolvedShards(coresPerPoint);

            SweepOutcome out;
            out.index = i;
            out.label = point.label;
            out.params = point.params;
            out.seed = seed;
            out.shards = staged.config.shards;

            double totalWallMs = 0.0;
            for (int attempt = 1;; attempt++) {
                double budgetMs = 0.0;
                if (options_.isolate && wantWatchdog) {
                    std::lock_guard<std::mutex> lock(progressMutex);
                    budgetMs =
                        sweepPointBudgetMs(options_, completedWallMs);
                }

                auto attemptStart = std::chrono::steady_clock::now();
                Attempt a = runAttempt(
                    [&] { return fn(i, staged, seed); },
                    options_.isolate, budgetMs);
                totalWallMs += elapsedMs(attemptStart);
                out.attempts = attempt;

                if (a.ok) {
                    out.status = PointStatus::kOk;
                    out.metrics = a.metrics;
                    out.error.clear();
                    break;
                }
                out.error = a.error;
                if (!a.retryable || attempt >= maxAttempts) {
                    out.status = PointStatus::kFailed;
                    out.metrics = RunMetrics{};
                    warn("sweep: point %zu '%s' failed after %d "
                         "attempt(s): %s",
                         i, point.label.c_str(), attempt,
                         out.error.c_str());
                    break;
                }
                double backoffMs = std::min(
                    5000.0, options_.retryBackoffMs *
                                static_cast<double>(1u << (attempt - 1)));
                warn("sweep: point %zu '%s' attempt %d failed (%s); "
                     "retrying in %.0f ms",
                     i, point.label.c_str(), attempt, a.error.c_str(),
                     backoffMs);
                if (backoffMs > 0.0) {
                    std::this_thread::sleep_for(
                        std::chrono::duration<double, std::milli>(
                            backoffMs));
                }
            }
            out.wallMs = totalWallMs;
            workerWallMs[static_cast<std::size_t>(worker)].add(
                totalWallMs);

            std::lock_guard<std::mutex> lock(progressMutex);
            if (out.ok())
                completedWallMs.push_back(totalWallMs);
            report.outcomes[i] = std::move(out);
            journal.append(report.outcomes[i]);
            done++;
            if (options_.progress)
                options_.progress(report.outcomes[i], done, points.size());
        });

    report.wallMs = elapsedMs(sweepStart);
    for (const RunningStat &w : workerWallMs)
        report.pointWallMs.merge(w);
    return report;
}

std::vector<TimelineOutcome>
runTimelines(const SweepRunner &runner,
             const std::vector<TimelinePoint> &points)
{
    SweepRunner::Options opts = runner.options();
    std::string dropped;
    auto drop = [&dropped](bool requested, const char *what) {
        if (requested)
            dropped += (dropped.empty() ? "" : ", ") + std::string(what);
    };
    drop(!opts.journalPath.empty(), "--journal");
    drop(opts.resume, "--resume");
    drop(opts.isolate, "--isolate");
    drop(opts.timeoutMs > 0.0 || opts.timeoutFactor > 0.0,
         "--timeout-ms/--timeout-factor");
    if (!dropped.empty()) {
        warn("sweep: timeline sweeps run without %s (per-bin series are "
             "neither journal records nor pipe payload)",
             dropped.c_str());
    }
    opts.journalPath.clear();
    opts.resume = false;
    opts.isolate = false;
    opts.timeoutMs = 0.0;
    opts.timeoutFactor = 0.0;
    const SweepRunner inProcess(std::move(opts));

    std::vector<SweepPoint> staged(points.size());
    for (std::size_t i = 0; i < points.size(); i++) {
        const TimelinePoint &t = points[i];
        staged[i].label = t.label;
        staged[i].config = t.config;
        staged[i].spec = t.spec;
        staged[i].protocol = RunProtocol{t.warmup, t.total};
        staged[i].seedKey = t.seedKey;
        staged[i].trace = t.trace;
    }
    std::vector<TimelineResult> series(points.size());
    SweepReport report = inProcess.execute(
        staged,
        [&](std::size_t i, const SweepPoint &point, std::uint64_t) {
            series[i] = TimelineResult{};
            series[i].bin = points[i].bin;
            return series[i].metrics =
                       inProcess.runPoint(point, &series[i]);
        });

    std::vector<TimelineOutcome> outcomes(points.size());
    for (std::size_t i = 0; i < points.size(); i++) {
        static_cast<SweepOutcome &>(outcomes[i]) =
            std::move(report.outcomes[i]);
        if (outcomes[i].ok())
            outcomes[i].timeline = std::move(series[i]);
    }
    return outcomes;
}

std::string
sweepManifestJson(const std::string &sweep_name, std::uint64_t base_seed,
                  const std::vector<SweepOutcome> &outcomes)
{
    std::string out = "{\n";
    out += "  \"sweep\": " + jsonString(sweep_name) + ",\n";
    out += "  \"base_seed\": " + std::to_string(base_seed) + ",\n";
    out += "  \"points\": " + std::to_string(outcomes.size()) + ",\n";
    out += "  \"results\": [\n";
    for (std::size_t i = 0; i < outcomes.size(); i++) {
        const SweepOutcome &o = outcomes[i];
        out += "    {\"index\": " + std::to_string(o.index);
        out += ", \"label\": " + jsonString(o.label);
        out += ", \"seed\": " + std::to_string(o.seed);
        out += ", \"status\": ";
        out += jsonString(pointStatusName(o.status));
        out += ", \"params\": {";
        for (std::size_t p = 0; p < o.params.size(); p++) {
            if (p > 0)
                out += ", ";
            out += jsonString(o.params[p].first) + ": " +
                   jsonNumber(o.params[p].second);
        }
        out += "}, \"metrics\": {";
        auto fields = metricsFields(o.metrics);
        for (std::size_t f = 0; f < fields.size(); f++) {
            if (f > 0)
                out += ", ";
            out += jsonString(fields[f].first) + ": " +
                   jsonNumber(fields[f].second);
        }
        out += "}}";
        out += i + 1 < outcomes.size() ? ",\n" : "\n";
    }
    out += "  ]\n}\n";
    return out;
}

void
writeSweepManifest(const std::string &path, const std::string &sweep_name,
                   std::uint64_t base_seed,
                   const std::vector<SweepOutcome> &outcomes)
{
    atomicWriteFileOrDie(
        path, sweepManifestJson(sweep_name, base_seed, outcomes));
}

void
writeSweepManifestCsv(const std::string &path,
                      const std::vector<SweepOutcome> &outcomes)
{
    CsvWriter csv(path);
    std::vector<std::string> header = {"index", "label", "seed",
                                       "status"};
    std::vector<std::string> paramKeys;
    if (!outcomes.empty()) {
        for (const auto &kv : outcomes.front().params)
            paramKeys.push_back(kv.first);
    }
    for (const auto &k : paramKeys)
        header.push_back(k);
    for (const auto &kv : metricsFields(RunMetrics{}))
        header.push_back(kv.first);
    csv.header(header);

    for (const SweepOutcome &o : outcomes) {
        std::vector<std::string> row = {std::to_string(o.index), o.label,
                                        std::to_string(o.seed),
                                        pointStatusName(o.status)};
        for (const auto &key : paramKeys) {
            std::string cell;
            for (const auto &kv : o.params) {
                if (kv.first == key) {
                    cell = jsonNumber(kv.second);
                    break;
                }
            }
            row.push_back(cell);
        }
        for (const auto &kv : metricsFields(o.metrics))
            row.push_back(jsonNumber(kv.second));
        csv.row(row);
    }
}

} // namespace oenet

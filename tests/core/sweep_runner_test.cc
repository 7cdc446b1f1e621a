/**
 * @file
 * Tests for the parallel sweep-execution engine: the determinism
 * contract (identical manifests at any thread count), seed derivation
 * and seedKey grouping, custom point bodies, progress reporting, and
 * manifest emission.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <csignal>
#include <cstdio>
#include <fstream>
#include <set>
#include <sstream>
#include <type_traits>

#include "common/parallel.hh"
#include "common/rng.hh"
#include "common/stats.hh"
#include "core/sweep_journal.hh"
#include "core/sweep_runner.hh"

using namespace oenet;

namespace {

SystemConfig
smallConfig()
{
    SystemConfig c;
    c.meshX = 2;
    c.meshY = 2;
    c.clusterSize = 2;
    c.windowCycles = 200;
    return c;
}

/** A small but non-trivial sweep: rates x {power-aware, baseline}. */
std::vector<SweepPoint>
smallSweep()
{
    const double rates[] = {0.3, 0.6, 0.9};
    RunProtocol protocol;
    protocol.warmup = 1000;
    protocol.measure = 4000;
    protocol.drainLimit = 4000;

    std::vector<SweepPoint> points;
    for (std::size_t ri = 0; ri < std::size(rates); ri++) {
        for (bool pa : {true, false}) {
            SweepPoint p;
            p.label = "rate=" + formatDouble(rates[ri], 1) +
                      (pa ? "/pa" : "/base");
            p.params = {{"rate", rates[ri]},
                        {"pa", pa ? 1.0 : 0.0}};
            p.config = smallConfig();
            p.config.powerAware = pa;
            p.spec = TrafficSpec::uniform(rates[ri], 4);
            p.protocol = protocol;
            p.seedKey = ri; // pa/base pair shares the traffic stream
            points.push_back(std::move(p));
        }
    }
    return points;
}

SweepReport
runAt(int jobs, std::uint64_t base_seed = 5)
{
    SweepRunner::Options opts;
    opts.jobs = jobs;
    opts.baseSeed = base_seed;
    return SweepRunner(opts).run(smallSweep());
}

} // namespace

TEST(SweepRunner, ManifestIdenticalAtAnyThreadCount)
{
    // The headline determinism contract: the manifest is byte-identical
    // whether the sweep ran serially or across four workers.
    SweepReport serial = runAt(1);
    SweepReport parallel = runAt(4);
    EXPECT_EQ(serial.jobs, 1);
    std::string a = sweepManifestJson("t", 5, serial.outcomes);
    std::string b = sweepManifestJson("t", 5, parallel.outcomes);
    EXPECT_EQ(a, b);
}

TEST(SweepRunner, BaseSeedChangesResults)
{
    SweepReport a = runAt(1, 5);
    SweepReport b = runAt(1, 6);
    EXPECT_NE(sweepManifestJson("t", 5, a.outcomes),
              sweepManifestJson("t", 6, b.outcomes));
}

TEST(SweepRunner, SeedKeyGroupsShareStreams)
{
    SweepReport report = runAt(1);
    // Layout: pairs (2*ri, 2*ri+1) share seedKey ri.
    std::set<std::uint64_t> perKey;
    for (std::size_t ri = 0; ri < 3; ri++) {
        EXPECT_EQ(report.outcomes[2 * ri].seed,
                  report.outcomes[2 * ri + 1].seed);
        perKey.insert(report.outcomes[2 * ri].seed);
    }
    EXPECT_EQ(perKey.size(), 3u) << "distinct keys, distinct streams";
}

TEST(SweepRunner, DefaultSeedKeyIsIndex)
{
    SweepPoint p;
    SweepRunner runner;
    EXPECT_NE(runner.pointSeed(p, 0), runner.pointSeed(p, 1));
    EXPECT_EQ(runner.pointSeed(p, 3),
              deriveStreamSeed(runner.options().baseSeed, 3));
}

TEST(SweepRunner, ReseedSpecsReplacesSpecSeed)
{
    std::vector<SweepPoint> points = smallSweep();
    for (auto &p : points)
        p.spec.seed = 12345;

    SweepRunner::Options opts;
    opts.jobs = 1;
    opts.baseSeed = 5;
    std::vector<std::uint64_t> seen;
    SweepRunner(opts).run(
        points, [&](const SweepPoint &p, std::uint64_t seed) {
            EXPECT_EQ(p.spec.seed, seed) << "spec reseeded";
            seen.push_back(seed);
            return RunMetrics{};
        });
    EXPECT_EQ(seen.size(), points.size());
}

TEST(SweepRunner, CustomPointFnAndOutcomeFields)
{
    std::vector<SweepPoint> points = smallSweep();
    SweepRunner::Options opts;
    opts.jobs = 2;
    SweepReport report = SweepRunner(opts).run(
        points, [](const SweepPoint &p, std::uint64_t) {
            RunMetrics m;
            m.avgLatency = p.params[0].second * 10.0;
            return m;
        });
    ASSERT_EQ(report.outcomes.size(), points.size());
    for (std::size_t i = 0; i < points.size(); i++) {
        EXPECT_EQ(report.outcomes[i].index, i);
        EXPECT_EQ(report.outcomes[i].label, points[i].label);
        EXPECT_DOUBLE_EQ(report.outcomes[i].metrics.avgLatency,
                         points[i].params[0].second * 10.0);
    }
    EXPECT_EQ(report.jobs, 2);
    EXPECT_GT(report.wallMs, 0.0);
    EXPECT_EQ(report.pointWallMs.count(), points.size());
}

TEST(SweepRunner, ProgressReportsEveryPointOnce)
{
    std::atomic<std::size_t> calls{0};
    std::size_t lastDone = 0;
    SweepRunner::Options opts;
    opts.jobs = 4;
    opts.progress = [&](const SweepOutcome &, std::size_t done,
                        std::size_t total) {
        calls++;
        EXPECT_EQ(total, 6u);
        EXPECT_GT(done, lastDone) << "done is monotonically increasing";
        lastDone = done;
    };
    SweepRunner(opts).run(smallSweep(),
                          [](const SweepPoint &, std::uint64_t) {
                              return RunMetrics{};
                          });
    EXPECT_EQ(calls.load(), 6u);
    EXPECT_EQ(lastDone, 6u);
}

TEST(SweepRunner, AutoShardsSplitTheMachineWithThePool)
{
    // 32x32 points would take 16 shards on a big enough machine; a
    // J-job pool gives each auto point hardwareJobs() / J cores, so
    // jobs x shards never exceeds the machine. The body only records
    // what it was handed, so nothing is simulated.
    std::vector<SweepPoint> points(6);
    for (std::size_t i = 0; i < points.size(); i++) {
        points[i].label = "p" + std::to_string(i);
        points[i].config.meshX = 32;
        points[i].config.meshY = 32;
    }
    points[5].config.shards = 3; // explicit: passes through
    for (int jobs : {1, 2, 4, 6}) {
        SweepRunner::Options opts;
        opts.jobs = jobs;
        std::vector<int> handed(points.size(), -1);
        SweepReport report = SweepRunner(opts).run(
            points, [&](const SweepPoint &p, std::uint64_t) {
                handed[std::stoul(p.label.substr(1))] = p.config.shards;
                return RunMetrics{};
            });
        const int share = std::max(1, hardwareJobs() / report.jobs);
        for (std::size_t i = 0; i < points.size(); i++) {
            int want = i == 5 ? 3 : std::max(1, std::min(share, 16));
            EXPECT_EQ(handed[i], want) << "jobs=" << jobs << " i=" << i;
            EXPECT_EQ(report.outcomes[i].shards, want);
            if (i != 5) {
                EXPECT_LE(handed[i] * report.jobs,
                          std::max(hardwareJobs(), report.jobs));
            }
        }
    }
}

TEST(SweepRunner, EmptySweep)
{
    SweepReport report = SweepRunner().run({});
    EXPECT_TRUE(report.outcomes.empty());
    EXPECT_EQ(report.pointWallMs.count(), 0u);
}

TEST(SweepRunner, TimelinesDeterministicAcrossThreadCounts)
{
    std::vector<TimelinePoint> points;
    for (double rate : {0.2, 0.5, 0.8}) {
        TimelinePoint p;
        p.label = "rate=" + formatDouble(rate, 1);
        p.config = smallConfig();
        p.spec = TrafficSpec::uniform(rate, 4);
        p.total = 4000;
        p.bin = 1000;
        points.push_back(std::move(p));
    }

    SweepRunner::Options serialOpts, parallelOpts;
    serialOpts.jobs = 1;
    parallelOpts.jobs = 4;
    auto serial = runTimelines(SweepRunner(serialOpts), points);
    auto parallel = runTimelines(SweepRunner(parallelOpts), points);

    ASSERT_EQ(serial.size(), parallel.size());
    for (std::size_t i = 0; i < serial.size(); i++) {
        EXPECT_EQ(serial[i].seed, parallel[i].seed);
        ASSERT_EQ(serial[i].timeline.normalizedPower.size(),
                  parallel[i].timeline.normalizedPower.size());
        for (std::size_t b = 0;
             b < serial[i].timeline.normalizedPower.size(); b++) {
            EXPECT_DOUBLE_EQ(serial[i].timeline.normalizedPower[b],
                             parallel[i].timeline.normalizedPower[b]);
        }
    }

    std::string a = sweepManifestJson("t", 1, timelineRollups(serial));
    std::string b = sweepManifestJson("t", 1, timelineRollups(parallel));
    EXPECT_EQ(a, b);
}

namespace {

/** Every RunMetrics field as (name, exact text): %.17g for doubles,
 *  decimal for integers. */
std::vector<std::pair<std::string, std::string>>
metricFields(const RunMetrics &m)
{
    std::vector<std::pair<std::string, std::string>> out;
    forEachRunMetricsField(m, [&](const char *name, const auto &v) {
        if constexpr (std::is_floating_point_v<
                          std::remove_cvref_t<decltype(v)>>) {
            char buf[40];
            std::snprintf(buf, sizeof(buf), "%.17g", v);
            out.emplace_back(name, buf);
        } else {
            out.emplace_back(name, std::to_string(v));
        }
    });
    return out;
}

} // namespace

TEST(SweepRunner, TimelinePointMatchesSweepPointOnFaultedFabric)
{
    // A timeline is the point protocol with its measure phase walked
    // in bins: with bin dividing the measure window, its whole-run
    // metrics equal the same point's, fault streams included.
    SystemConfig c;
    c.meshX = 3;
    c.meshY = 3;
    c.clusterSize = 2;
    c.routing = RoutingAlgo::kWestFirst;
    c.fault.enabled = true;
    c.fault.berFloor = 1e-3;

    SweepPoint point;
    point.label = "faulted";
    point.config = c;
    point.spec = TrafficSpec::uniform(0.5, 4);
    point.protocol.warmup = 500;
    point.protocol.measure = 4000;

    TimelinePoint timeline;
    timeline.label = point.label;
    timeline.config = c;
    timeline.spec = point.spec;
    timeline.warmup = 500;
    timeline.total = 4000;
    timeline.bin = 1000;

    SweepRunner::Options opts;
    opts.jobs = 1;
    opts.baseSeed = 9;
    SweepRunner runner(opts);
    SweepReport report = runner.run({point});
    std::vector<TimelineOutcome> series = runTimelines(runner, {timeline});

    ASSERT_TRUE(report.outcomes[0].ok());
    ASSERT_EQ(series[0].status, PointStatus::kOk);
    EXPECT_EQ(series[0].seed, report.outcomes[0].seed);
    EXPECT_EQ(series[0].timeline.offeredRate.size(), 4u);
    EXPECT_GT(report.outcomes[0].metrics.flitsCorrupted, 0u);
    EXPECT_EQ(metricFields(series[0].timeline.metrics),
              metricFields(report.outcomes[0].metrics));
}

// ---------------------------------------------------------------------
// Crash safety: retry, watchdog, isolation, journal/resume.
// ---------------------------------------------------------------------

namespace {

/** Deterministic synthetic metrics: a pure function of the point's
 *  first parameter and seed, so replayed and re-run points agree. */
RunMetrics
syntheticMetrics(const SweepPoint &p, std::uint64_t seed)
{
    RunMetrics m;
    m.avgLatency = p.params[0].second * 10.0 + 0.125;
    m.packetsMeasured = seed % 100000;
    m.drained = true;
    return m;
}

/** Options with instant retries so tests never sleep. */
SweepRunner::Options
fastRetryOpts(int jobs = 1)
{
    SweepRunner::Options opts;
    opts.jobs = jobs;
    opts.retryBackoffMs = 0.0;
    return opts;
}

} // namespace

TEST(SweepRobustness, FlakyPointRecoversOnRetry)
{
    std::atomic<int> firstAttempts{0};
    SweepRunner::Options opts = fastRetryOpts();
    opts.maxRetries = 2;
    SweepReport report = SweepRunner(opts).run(
        smallSweep(), [&](const SweepPoint &p, std::uint64_t seed) {
            if (p.label == "rate=0.3/pa" && firstAttempts++ == 0)
                throw std::runtime_error("transient failure");
            return syntheticMetrics(p, seed);
        });
    EXPECT_TRUE(report.allOk());
    EXPECT_EQ(report.outcomes[0].attempts, 2);
    EXPECT_EQ(report.outcomes[1].attempts, 1);
    EXPECT_EQ(firstAttempts.load(), 2);
}

TEST(SweepRobustness, ExhaustedRetriesRecordFailedOutcome)
{
    SweepRunner::Options opts = fastRetryOpts(2);
    opts.maxRetries = 1;
    SweepReport report = SweepRunner(opts).run(
        smallSweep(), [&](const SweepPoint &p, std::uint64_t seed) {
            if (p.label == "rate=0.6/base")
                throw std::runtime_error("always broken");
            return syntheticMetrics(p, seed);
        });
    EXPECT_FALSE(report.allOk());
    EXPECT_EQ(report.failedPoints(), 1u);
    const SweepOutcome &bad = report.outcomes[3];
    EXPECT_EQ(bad.label, "rate=0.6/base");
    EXPECT_EQ(bad.status, PointStatus::kFailed);
    EXPECT_EQ(bad.attempts, 2); // 1 + maxRetries
    EXPECT_NE(bad.error.find("always broken"), std::string::npos);
    EXPECT_EQ(bad.metrics.avgLatency, 0.0) << "failed metrics zeroed";
    // The other five points are intact.
    for (std::size_t i = 0; i < report.outcomes.size(); i++) {
        if (i != 3) {
            EXPECT_TRUE(report.outcomes[i].ok());
        }
    }
}

TEST(SweepRobustness, FailedStatusAppearsInManifests)
{
    SweepRunner::Options opts = fastRetryOpts();
    opts.maxRetries = 0;
    SweepReport report = SweepRunner(opts).run(
        smallSweep(), [&](const SweepPoint &p, std::uint64_t seed) {
            if (p.label == "rate=0.9/pa")
                throw std::runtime_error("broken");
            return syntheticMetrics(p, seed);
        });
    std::string json = sweepManifestJson("t", 5, report.outcomes);
    EXPECT_NE(json.find("\"status\": \"failed\""), std::string::npos);
    EXPECT_NE(json.find("\"status\": \"ok\""), std::string::npos);
    EXPECT_EQ(json.find("broken"), std::string::npos)
        << "error text must stay out of the manifest";

    std::string csvPath = "sweep_runner_test_status.csv";
    writeSweepManifestCsv(csvPath, report.outcomes);
    std::ifstream csv(csvPath);
    std::string header, row;
    ASSERT_TRUE(std::getline(csv, header));
    EXPECT_NE(header.find(",status,"), std::string::npos);
    std::size_t failedRows = 0;
    while (std::getline(csv, row)) {
        if (row.find(",failed,") != std::string::npos)
            failedRows++;
    }
    EXPECT_EQ(failedRows, 1u);
    std::remove(csvPath.c_str());
}

TEST(SweepRobustness, AuditFailureIsFailedWithoutRetry)
{
    std::atomic<int> calls{0};
    SweepRunner::Options opts = fastRetryOpts();
    opts.maxRetries = 3;
    SweepReport report = SweepRunner(opts).run(
        smallSweep(), [&](const SweepPoint &p, std::uint64_t seed) {
            RunMetrics m = syntheticMetrics(p, seed);
            if (p.label == "rate=0.3/base") {
                calls++;
                m.auditFailures = 2;
            }
            return m;
        });
    EXPECT_EQ(report.failedPoints(), 1u);
    const SweepOutcome &bad = report.outcomes[1];
    EXPECT_EQ(bad.status, PointStatus::kFailed);
    // A conservation-audit violation is deterministic; retrying it
    // would just burn the retry budget.
    EXPECT_EQ(bad.attempts, 1);
    EXPECT_EQ(calls.load(), 1);
    EXPECT_NE(bad.error.find("conservation audit"), std::string::npos);
}

TEST(SweepRobustness, ThrowingTraceFactoryFailsAlikeOnBothPaths)
{
    SweepRunner::Options opts = fastRetryOpts();
    opts.maxRetries = 1;
    opts.traceFactory =
        [](const std::string &label) -> std::unique_ptr<TraceSink> {
        throw std::runtime_error("cannot open a trace for " + label);
    };

    SweepPoint point;
    point.label = "traced";
    point.config = smallConfig();
    point.spec = TrafficSpec::uniform(0.3, 4);
    point.protocol.warmup = 100;
    point.protocol.measure = 400;
    point.trace = true;

    TimelinePoint timeline;
    timeline.label = point.label;
    timeline.config = point.config;
    timeline.spec = point.spec;
    timeline.warmup = 100;
    timeline.total = 400;
    timeline.bin = 100;
    timeline.trace = true;

    SweepRunner runner(opts);
    SweepOutcome p = runner.run({point}).outcomes[0];
    std::vector<TimelineOutcome> t = runTimelines(runner, {timeline});
    EXPECT_EQ(p.status, PointStatus::kFailed);
    EXPECT_EQ(p.attempts, 2);
    EXPECT_NE(p.error.find("cannot open a trace for traced"),
              std::string::npos);
    EXPECT_EQ(t[0].status, p.status);
    EXPECT_EQ(t[0].attempts, p.attempts);
    EXPECT_EQ(t[0].error, p.error);
}

TEST(SweepRobustness, IsolatedCrashIsContained)
{
    SweepRunner::Options opts = fastRetryOpts(2);
    opts.isolate = true;
    opts.maxRetries = 0;
    SweepReport report = SweepRunner(opts).run(
        smallSweep(), [&](const SweepPoint &p, std::uint64_t seed) {
            if (p.label == "rate=0.6/pa") {
                // Dies in the child, not here. The default action is
                // restored first: a sanitizer runtime's SEGV handler
                // would turn the crash into an exit.
                std::signal(SIGSEGV, SIG_DFL);
                std::raise(SIGSEGV);
            }
            return syntheticMetrics(p, seed);
        });
    ASSERT_EQ(report.outcomes.size(), 6u);
    EXPECT_EQ(report.failedPoints(), 1u);
    const SweepOutcome &bad = report.outcomes[2];
    EXPECT_EQ(bad.status, PointStatus::kFailed);
    EXPECT_NE(bad.error.find("signal 11"), std::string::npos);
    for (std::size_t i = 0; i < report.outcomes.size(); i++) {
        if (i != 2) {
            EXPECT_TRUE(report.outcomes[i].ok());
            EXPECT_GT(report.outcomes[i].metrics.avgLatency, 0.0);
        }
    }
}

TEST(SweepRobustness, IsolatedResultsMatchInProcessResults)
{
    std::vector<SweepPoint> points = smallSweep();
    SweepRunner::Options inProc = fastRetryOpts();
    SweepRunner::Options isolated = fastRetryOpts();
    isolated.isolate = true;
    SweepReport a = SweepRunner(inProc).run(
        points, [](const SweepPoint &p, std::uint64_t seed) {
            return syntheticMetrics(p, seed);
        });
    SweepReport b = SweepRunner(isolated).run(
        points, [](const SweepPoint &p, std::uint64_t seed) {
            return syntheticMetrics(p, seed);
        });
    EXPECT_EQ(sweepManifestJson("t", 1, a.outcomes),
              sweepManifestJson("t", 1, b.outcomes));
}

TEST(SweepRobustness, WatchdogKillsHungIsolatedPoint)
{
    SweepRunner::Options opts = fastRetryOpts();
    opts.isolate = true;
    opts.timeoutMs = 200.0;
    opts.maxRetries = 1;
    SweepReport report = SweepRunner(opts).run(
        smallSweep(), [&](const SweepPoint &p, std::uint64_t seed) {
            if (p.label == "rate=0.9/base") {
                for (;;) {
                } // hang; the watchdog must SIGKILL the child
            }
            return syntheticMetrics(p, seed);
        });
    EXPECT_EQ(report.failedPoints(), 1u);
    const SweepOutcome &bad = report.outcomes[5];
    EXPECT_EQ(bad.status, PointStatus::kFailed);
    EXPECT_EQ(bad.attempts, 2);
    EXPECT_NE(bad.error.find("watchdog"), std::string::npos);
}

TEST(SweepBudget, AbsoluteTimeoutWins)
{
    SweepRunner::Options opts;
    opts.timeoutMs = 500.0;
    opts.timeoutFactor = 10.0;
    EXPECT_EQ(sweepPointBudgetMs(opts, {}), 500.0);
    EXPECT_EQ(sweepPointBudgetMs(opts, {1.0, 2.0, 3.0}), 500.0);
}

TEST(SweepBudget, FactorNeedsThreeSamplesAndUsesMedian)
{
    SweepRunner::Options opts;
    opts.timeoutFactor = 3.0;
    EXPECT_EQ(sweepPointBudgetMs(opts, {}), 0.0);
    EXPECT_EQ(sweepPointBudgetMs(opts, {100.0, 200.0}), 0.0);
    EXPECT_EQ(sweepPointBudgetMs(opts, {100.0, 300.0, 200.0}), 600.0);
}

TEST(SweepBudget, FactorBudgetIsFloored)
{
    SweepRunner::Options opts;
    opts.timeoutFactor = 1.0;
    // 1 x median(10, 20, 30) = 20 ms — below the 100 ms floor.
    EXPECT_EQ(sweepPointBudgetMs(opts, {10.0, 20.0, 30.0}), 100.0);
}

TEST(SweepBudget, DisabledByDefault)
{
    EXPECT_EQ(sweepPointBudgetMs(SweepRunner::Options{},
                                 {50.0, 60.0, 70.0}),
              0.0);
}

TEST(SweepJournalResume, ResumeSkipsCompletedPoints)
{
    std::string path = "sweep_runner_test_resume.jsonl";
    std::remove(path.c_str());
    std::vector<SweepPoint> points = smallSweep();

    SweepRunner::Options opts = fastRetryOpts(2);
    opts.journalPath = path;
    SweepReport first = SweepRunner(opts).run(
        points, [](const SweepPoint &p, std::uint64_t seed) {
            return syntheticMetrics(p, seed);
        });
    ASSERT_TRUE(first.allOk());

    std::atomic<int> executed{0};
    opts.resume = true;
    SweepReport second = SweepRunner(opts).run(
        points, [&](const SweepPoint &p, std::uint64_t seed) {
            executed++;
            return syntheticMetrics(p, seed);
        });
    EXPECT_EQ(executed.load(), 0) << "all points replayed, none re-run";
    EXPECT_EQ(second.resumedPoints, 6u);
    EXPECT_EQ(sweepManifestJson("t", 5, first.outcomes),
              sweepManifestJson("t", 5, second.outcomes));
    std::remove(path.c_str());
}

TEST(SweepJournalResume, PartialJournalRunsOnlyTheRemainder)
{
    std::string path = "sweep_runner_test_partial.jsonl";
    std::remove(path.c_str());
    std::vector<SweepPoint> points = smallSweep();

    SweepRunner::Options plain = fastRetryOpts();
    SweepReport uninterrupted = SweepRunner(plain).run(
        points, [](const SweepPoint &p, std::uint64_t seed) {
            return syntheticMetrics(p, seed);
        });

    SweepRunner::Options journaled = fastRetryOpts();
    journaled.journalPath = path;
    SweepRunner(journaled).run(
        points, [](const SweepPoint &p, std::uint64_t seed) {
            return syntheticMetrics(p, seed);
        });

    // Simulate a SIGKILL after two points: keep header + 2 records.
    {
        std::ifstream in(path, std::ios::binary);
        std::string all((std::istreambuf_iterator<char>(in)),
                        std::istreambuf_iterator<char>());
        std::size_t pos = 0;
        for (int nl = 0; nl < 3; pos++) {
            if (all[pos] == '\n')
                nl++;
        }
        std::ofstream out(path, std::ios::binary | std::ios::trunc);
        out.write(all.data(), static_cast<std::streamsize>(pos));
    }

    std::atomic<int> executed{0};
    journaled.resume = true;
    SweepReport resumed = SweepRunner(journaled).run(
        points, [&](const SweepPoint &p, std::uint64_t seed) {
            executed++;
            return syntheticMetrics(p, seed);
        });
    EXPECT_EQ(executed.load(), 4);
    EXPECT_EQ(resumed.resumedPoints, 2u);
    EXPECT_EQ(sweepManifestJson("t", 5, uninterrupted.outcomes),
              sweepManifestJson("t", 5, resumed.outcomes));
    std::remove(path.c_str());
}

TEST(SweepJournalResume, FailedOutcomesReplayAsFailed)
{
    std::string path = "sweep_runner_test_failed.jsonl";
    std::remove(path.c_str());
    std::vector<SweepPoint> points = smallSweep();

    SweepRunner::Options opts = fastRetryOpts();
    opts.journalPath = path;
    opts.maxRetries = 0;
    SweepReport first = SweepRunner(opts).run(
        points, [](const SweepPoint &p, std::uint64_t seed) {
            if (p.label == "rate=0.3/pa")
                throw std::runtime_error("dead config");
            return syntheticMetrics(p, seed);
        });
    EXPECT_EQ(first.failedPoints(), 1u);

    // Resume replays the failed record too — it was a terminal
    // outcome, not an interrupted one.
    opts.resume = true;
    SweepReport second = SweepRunner(opts).run(
        points, [](const SweepPoint &p, std::uint64_t seed) {
            ADD_FAILURE() << "no point should re-run";
            return syntheticMetrics(p, seed);
        });
    EXPECT_EQ(second.failedPoints(), 1u);
    EXPECT_EQ(second.outcomes[0].status, PointStatus::kFailed);
    EXPECT_EQ(sweepManifestJson("t", 5, first.outcomes),
              sweepManifestJson("t", 5, second.outcomes));
    std::remove(path.c_str());
}

TEST(SweepJournalResumeDeath, ResumeWithoutJournalIsFatal)
{
    SweepRunner::Options opts;
    opts.resume = true;
    EXPECT_EXIT(SweepRunner(opts).run(
                    smallSweep(),
                    [](const SweepPoint &, std::uint64_t) {
                        return RunMetrics{};
                    }),
                ::testing::ExitedWithCode(1),
                "--resume requires a --journal");
}

TEST(SweepJournalResumeDeath, MismatchedHeaderIsFatal)
{
    std::string path = "sweep_runner_test_mismatch.jsonl";
    std::remove(path.c_str());
    {
        SweepJournal j;
        j.open(path, SweepJournal::Header{99, 3}, 0);
        j.close();
    }
    SweepRunner::Options opts;
    opts.baseSeed = 5; // journal says 99
    opts.journalPath = path;
    opts.resume = true;
    EXPECT_EXIT(SweepRunner(opts).run(
                    smallSweep(),
                    [](const SweepPoint &p, std::uint64_t seed) {
                        return syntheticMetrics(p, seed);
                    }),
                ::testing::ExitedWithCode(1),
                "belongs to a different sweep");
    std::remove(path.c_str());
}

TEST(SweepManifest, JsonShapeAndWallTimeExclusion)
{
    SweepOutcome o;
    o.index = 0;
    o.label = "demo \"quoted\"";
    o.params = {{"rate", 0.5}};
    o.seed = 42;
    o.metrics.avgLatency = 12.25;
    o.wallMs = 999.0; // must NOT appear in the manifest

    std::string json = sweepManifestJson("demo_sweep", 7, {o});
    EXPECT_NE(json.find("\"sweep\": \"demo_sweep\""), std::string::npos);
    EXPECT_NE(json.find("\"base_seed\": 7"), std::string::npos);
    EXPECT_NE(json.find("\"demo \\\"quoted\\\"\""), std::string::npos);
    EXPECT_NE(json.find("\"seed\": 42"), std::string::npos);
    EXPECT_NE(json.find("\"rate\": 0.5"), std::string::npos);
    EXPECT_NE(json.find("\"avg_latency\": 12.25"), std::string::npos);
    EXPECT_EQ(json.find("999"), std::string::npos)
        << "wall time leaked into the manifest";
    EXPECT_EQ(json.find("jobs"), std::string::npos)
        << "thread count leaked into the manifest";
}

TEST(SweepManifest, FilesRoundTrip)
{
    SweepReport report = runAt(2);
    std::string jsonPath = "sweep_runner_test_manifest.json";
    std::string csvPath = "sweep_runner_test_manifest.csv";
    writeSweepManifest(jsonPath, "t", 5, report.outcomes);
    writeSweepManifestCsv(csvPath, report.outcomes);

    std::ifstream in(jsonPath, std::ios::binary);
    std::stringstream buf;
    buf << in.rdbuf();
    EXPECT_EQ(buf.str(), sweepManifestJson("t", 5, report.outcomes));

    std::ifstream csv(csvPath);
    std::string header;
    ASSERT_TRUE(std::getline(csv, header));
    EXPECT_NE(header.find("index"), std::string::npos);
    EXPECT_NE(header.find("rate"), std::string::npos);
    EXPECT_NE(header.find("avg_latency"), std::string::npos);
    std::size_t rows = 0;
    std::string line;
    while (std::getline(csv, line))
        rows++;
    EXPECT_EQ(rows, report.outcomes.size());

    std::remove(jsonPath.c_str());
    std::remove(csvPath.c_str());
}

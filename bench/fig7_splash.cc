/**
 * @file
 * Regenerates Fig. 7: injection rate over time and normalized power
 * over time for the three SPLASH-2 workloads (FFT, LU, Radix) replayed
 * through the modulator-based power-aware system. The traces are
 * synthetic reconstructions of the RSIM captures (see
 * traffic/splash_synth.hh); mean packet size is 48 flits, as in the
 * paper.
 *
 * Expected shape: the power curve tracks the injection-rate curve but
 * smoother — the sliding-window policy filters small fluctuations —
 * and FFT (slow waves) is tracked best.
 *
 * The three traces are generated up front (the trace IS the workload;
 * its generator seed is fixed, not tied to --seed) and replayed as one
 * timeline sweep across the worker pool.
 */

#include "bench_util.hh"

using namespace oenet;
using namespace oenet::bench;

int
main(int argc, char **argv)
{
    BenchArgs args = parseBenchArgs(argc, argv, 61);
    banner("Fig. 7", "SPLASH-2 traces (synthetic): injection rate and "
                     "normalized power over time");

    const Cycle kDuration =
        args.smoke ? 120000 : 1200000; ///< near the paper's trace span
    const Cycle kBin = args.smoke ? 10000 : 40000;
    constexpr double kRateScale = 0.25;

    const SplashKind kinds[] = {SplashKind::kFft, SplashKind::kLu,
                                SplashKind::kRadix};

    // Generate all traces before the sweep; TrafficSpec::traceReplay
    // keeps a pointer, so they must stay alive for the whole run.
    std::vector<TraceData> traces;
    traces.reserve(std::size(kinds));
    std::vector<TimelinePoint> points;
    SystemConfig base; // modulator, paper defaults + fabric flags
    applyFabricOverrides(args, base);
    for (SplashKind kind : kinds) {
        SplashSynthParams sp;
        sp.kind = kind;
        sp.numNodes = base.numNodes();
        sp.duration = kDuration;
        sp.rateScale = kRateScale;
        sp.seed = 61;
        traces.push_back(generateSplashTrace(sp));

        TimelinePoint p;
        p.label = splashKindName(kind);
        p.config = base;
        p.spec = TrafficSpec::traceReplay(traces.back());
        p.total = kDuration;
        p.bin = kBin;
        points.push_back(std::move(p));
    }
    applyKernelArgs(args, points);
    markTracePoint(args, points, 0); // the FFT replay

    SweepRunner runner(runnerOptions(args));
    std::vector<TimelineOutcome> outcomes = runTimelines(runner, points);
    printShards(outcomes);

    for (std::size_t k = 0; k < outcomes.size(); k++) {
        const TimelineResult &r = outcomes[k].timeline;
        std::string name = splashKindName(kinds[k]);
        Table t("Fig 7 (" + name + "): injection rate and normalized "
                "power over time",
                "fig7_" + name + "_timeline.csv",
                {"cycle", "injection_rate", "normalized_power",
                 "avg_latency"});
        for (std::size_t i = 0; i < r.offeredRate.size(); i++) {
            t.rowNumeric({static_cast<double>(i * kBin),
                          r.offeredRate[i], r.normalizedPower[i],
                          r.avgLatency[i]});
        }
        t.print();
        std::printf("   %s: mean packet %.1f flits, %zu packets, "
                    "run-average power %.3f of baseline\n",
                    name.c_str(), traceMeanPacketLen(traces[k]),
                    traces[k].size(), r.metrics.normalizedPower);
    }

    writeSweepManifest("fig7_manifest.json", "fig7_splash", args.seed,
                       timelineRollups(outcomes));
    std::printf("   (manifest: fig7_manifest.json)\n");
    return exitStatus(outcomes);
}

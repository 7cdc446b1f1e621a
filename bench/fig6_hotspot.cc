/**
 * @file
 * Regenerates Fig. 6 under the time-varying hot-spot trace:
 *
 *  (a) the injection-rate schedule itself;
 *  (b) average latency with and without the transition delays — the
 *      voltage-transition penalty should be ~free (voltage ramps while
 *      the link runs), and T_br = 20 cycles should barely matter at
 *      T_w = 1000;
 *  (c) latency with a single vs. three optical power levels on
 *      modulator links vs. the non-power-aware network — band
 *      crossings cost a 100 us optical wait;
 *  (d) normalized power of VCSEL- vs. modulator-based power-aware
 *      systems.
 *
 * The paper's trace spans ~1.5M cycles; we compress the same plateau
 * pattern into 300k cycles (documented in EXPERIMENTS.md).
 *
 * The seven configurations run as one timeline sweep; they all carry
 * seedKey 0, i.e. the identical traffic stream, so the curves differ
 * only by configuration.
 */

#include "bench_util.hh"

using namespace oenet;
using namespace oenet::bench;

int
main(int argc, char **argv)
{
    BenchArgs args = parseBenchArgs(argc, argv, 41);
    banner("Fig. 6", "time-varying hot-spot trace: transition-delay "
                     "ablation, optical levels, scheme comparison");

    const Cycle kTotal = args.smoke ? 60000 : 300000;
    const Cycle kBin = args.smoke ? 5000 : 10000;

    TrafficSpec spec =
        TrafficSpec::hotspot(defaultHotspotSchedule(kTotal), 4);

    // (a) the schedule.
    {
        Table t("Fig 6(a): offered injection rate over time",
                "fig6a_injection_schedule.csv",
                {"cycle", "packets_per_cycle"});
        for (const auto &ph : defaultHotspotSchedule(kTotal))
            t.rowNumeric({static_cast<double>(ph.start), ph.rate});
        t.print();
    }

    SystemConfig base;
    base.powerAware = false;
    SystemConfig mod; // T_v=100, T_br=20 (defaults)
    SystemConfig no_tv = mod;
    no_tv.voltTransitionCycles = 0;
    SystemConfig no_tbr = mod;
    no_tbr.freqTransitionCycles = 0;
    SystemConfig no_delays = mod;
    no_delays.voltTransitionCycles = 0;
    no_delays.freqTransitionCycles = 0;
    SystemConfig tri = mod;
    tri.opticalMode = OpticalMode::kTriLevel;
    // The paper's trace spans ~1.5M cycles; ours is compressed 5x, so
    // the optical plant's 100 us response / 200 us decision epoch are
    // compressed by the same factor to preserve the ratio of optical
    // to traffic timescales that Fig. 6(c) illustrates.
    tri.laser.responseCycles = microsToCycles(100.0) / 5;
    tri.laser.decisionEpochCycles = microsToCycles(200.0) / 5;
    SystemConfig vcsel = mod;
    vcsel.scheme = LinkScheme::kVcsel;

    const struct
    {
        const char *name;
        const SystemConfig *config;
    } cases[] = {
        {"non_pa", &base},     {"pa", &mod},
        {"pa_tv0", &no_tv},    {"pa_tbr0", &no_tbr},
        {"pa_no_delays", &no_delays}, {"tri_level", &tri},
        {"vcsel", &vcsel},
    };

    std::vector<TimelinePoint> points;
    for (const auto &c : cases) {
        TimelinePoint p;
        p.label = c.name;
        p.config = *c.config;
        p.spec = spec;
        p.total = kTotal;
        p.bin = kBin;
        p.seedKey = 0; // all cases see the identical traffic stream
        points.push_back(std::move(p));
    }
    // Trace the tri-level case: the only Fig. 6 configuration whose
    // trace carries laser VOA events alongside transitions and DVS.
    applyKernelArgs(args, points);
    markTracePoint(args, points, 5);

    std::printf("running %zu configurations over %llu cycles each...\n",
                points.size(), static_cast<unsigned long long>(kTotal));
    SweepRunner runner(runnerOptions(args));
    std::vector<TimelineOutcome> outcomes = runTimelines(runner, points);
    printShards(outcomes);

    const TimelineResult &r_base = outcomes[0].timeline;
    const TimelineResult &r_mod = outcomes[1].timeline;
    const TimelineResult &r_no_tv = outcomes[2].timeline;
    const TimelineResult &r_no_tbr = outcomes[3].timeline;
    const TimelineResult &r_no_delays = outcomes[4].timeline;
    const TimelineResult &r_tri = outcomes[5].timeline;
    const TimelineResult &r_vcsel = outcomes[6].timeline;

    // (b) latency vs time, transition-delay ablation.
    {
        Table t("Fig 6(b): avg latency (cycles) over time, transition "
                "delay ablation",
                "fig6b_latency_transition_delays.csv",
                {"cycle", "non_pa", "pa", "pa_tv0", "pa_tbr0",
                 "pa_no_delays"});
        for (std::size_t i = 0; i < r_base.avgLatency.size(); i++) {
            t.rowNumeric({static_cast<double>(i * kBin),
                          r_base.avgLatency[i], r_mod.avgLatency[i],
                          r_no_tv.avgLatency[i],
                          r_no_tbr.avgLatency[i],
                          r_no_delays.avgLatency[i]},
                         1);
        }
        t.print();
        std::printf("   run averages: non_pa %.1f | pa %.1f | tv0 %.1f "
                    "| tbr0 %.1f | none %.1f cycles\n",
                    r_base.metrics.avgLatency, r_mod.metrics.avgLatency,
                    r_no_tv.metrics.avgLatency,
                    r_no_tbr.metrics.avgLatency,
                    r_no_delays.metrics.avgLatency);
    }

    // (c) single vs multiple optical power levels.
    {
        Table t("Fig 6(c): avg latency (cycles) over time, optical "
                "levels",
                "fig6c_latency_optical_levels.csv",
                {"cycle", "non_pa", "single_level", "three_levels"});
        for (std::size_t i = 0; i < r_base.avgLatency.size(); i++) {
            t.rowNumeric({static_cast<double>(i * kBin),
                          r_base.avgLatency[i], r_mod.avgLatency[i],
                          r_tri.avgLatency[i]},
                         1);
        }
        t.print();
        std::printf("   run averages: single %.1f | three %.1f cycles; "
                    "optical stalls (three-level): %llu\n",
                    r_mod.metrics.avgLatency, r_tri.metrics.avgLatency,
                    static_cast<unsigned long long>(
                        r_tri.metrics.opticalStalls));
    }

    // (d) VCSEL vs modulator power.
    {
        Table t("Fig 6(d): normalized power over time, VCSEL vs "
                "modulator",
                "fig6d_power_scheme.csv",
                {"cycle", "offered_rate", "modulator", "vcsel",
                 "modulator_tri"});
        for (std::size_t i = 0; i < r_mod.normalizedPower.size(); i++) {
            t.rowNumeric({static_cast<double>(i * kBin),
                          r_mod.offeredRate[i],
                          r_mod.normalizedPower[i],
                          r_vcsel.normalizedPower[i],
                          r_tri.normalizedPower[i]});
        }
        t.print();
        std::printf("   run averages: modulator %.3f | vcsel %.3f | "
                    "modulator_tri %.3f of baseline\n",
                    r_mod.metrics.normalizedPower,
                    r_vcsel.metrics.normalizedPower,
                    r_tri.metrics.normalizedPower);
    }

    writeSweepManifest("fig6_manifest.json", "fig6_hotspot", args.seed,
                       timelineRollups(outcomes));
    std::printf("   (manifest: fig6_manifest.json)\n");
    return exitStatus(outcomes);
}

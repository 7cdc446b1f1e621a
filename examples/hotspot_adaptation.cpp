/**
 * @file
 * Watch the power-aware network track a time-varying hot-spot load in
 * real time: prints one line per window-of-bins with the offered rate,
 * normalized power, average latency, and the live bit-rate level
 * histogram — an animated view of Section 4.3.2.
 *
 * Usage: hotspot_adaptation [key=value ...]
 *   e.g. hotspot_adaptation link.scheme=vcsel policy.window=500
 */

#include <cstdio>
#include <map>

#include "common/config.hh"
#include "core/experiment.hh"
#include "traffic/hotspot.hh"

using namespace oenet;

int
main(int argc, char **argv)
{
    Config config;
    config.parseArgs(argc, argv);
    SystemConfig cfg = SystemConfig::fromConfig(config);

    const Cycle total = config.getUint("cycles", 200000);
    const Cycle bin = config.getUint("bin", 10000);
    config.rejectUnusedKeys();

    PoeSystem sys(cfg);
    TrafficSpec spec =
        TrafficSpec::hotspot(defaultHotspotSchedule(total), 4, 97);
    sys.setTraffic(makeTraffic(spec, cfg));
    sys.startMeasurement();

    std::printf("power-aware opto-electronic network, %s links, "
                "hot node %u draws 4x traffic\n",
                linkSchemeName(cfg.scheme),
                spec.hotNode % static_cast<NodeId>(cfg.numNodes()));
    std::printf("%10s %8s %8s %9s   %s\n", "cycle", "rate", "power",
                "latency", "links per bit-rate level (low..high)");

    std::uint64_t prev_created = 0;
    double prev_integral = 0.0;
    double prev_lat_sum = 0.0;
    std::size_t prev_lat_n = 0;
    double base = sys.network().baselinePowerMw();

    for (Cycle t = 0; t < total; t += bin) {
        sys.run(bin);

        double integral =
            sys.network().totalPowerIntegralMwCycles(sys.now());
        double power = (integral - prev_integral) /
                       (static_cast<double>(bin) * base);
        prev_integral = integral;

        std::uint64_t created = sys.measuredCreated();
        double rate = static_cast<double>(created - prev_created) /
                      static_cast<double>(bin);
        prev_created = created;

        double lat_sum = sys.latencyStat().sum();
        std::size_t lat_n = sys.latencyStat().count();
        double lat = lat_n > prev_lat_n
                         ? (lat_sum - prev_lat_sum) /
                               static_cast<double>(lat_n - prev_lat_n)
                         : 0.0;
        prev_lat_sum = lat_sum;
        prev_lat_n = lat_n;

        std::map<int, int> levels;
        Network &net = sys.network();
        for (std::size_t i = 0; i < net.numLinks(); i++)
            levels[net.link(i).currentLevel()]++;
        std::string hist;
        for (int l = 0; l <= net.levels().maxLevel(); l++) {
            char buf[16];
            std::snprintf(buf, sizeof(buf), "%5d", levels[l]);
            hist += buf;
        }

        std::printf("%10llu %8.2f %8.3f %9.1f  %s\n",
                    static_cast<unsigned long long>(sys.now()), rate,
                    power, lat, hist.c_str());
    }

    sys.stopMeasurement();
    sys.setTraffic(nullptr);
    sys.awaitDrain(100000);
    RunMetrics m = sys.metrics();
    std::printf("\nrun summary: %s\n", m.summary().c_str());
    std::printf("bit-rate transitions: %llu (up decisions %llu, down "
                "%llu)\n",
                static_cast<unsigned long long>(m.transitions),
                static_cast<unsigned long long>(m.decisionsUp),
                static_cast<unsigned long long>(m.decisionsDown));
    return 0;
}

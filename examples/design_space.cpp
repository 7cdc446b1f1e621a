/**
 * @file
 * Mini design-space exploration in the spirit of the paper's title:
 * sweep the transmitter scheme (VCSEL vs. modulator), the bit-rate
 * range (5-10 vs. 3.3-10 Gb/s), and the optical provisioning (fixed vs.
 * tri-level, modulator only) at a chosen load, and print the
 * latency/power frontier so a designer can pick an operating point.
 *
 * Usage: design_space [rate=2.0]
 */

#include <cstdio>
#include <vector>

#include "common/config.hh"
#include "core/sweeps.hh"

using namespace oenet;

int
main(int argc, char **argv)
{
    Config config;
    config.parseArgs(argc, argv);
    double rate = config.getDouble("rate", 2.0);
    config.rejectUnusedKeys();

    struct Point
    {
        const char *name;
        SystemConfig config;
    };
    std::vector<Point> points;

    {
        SystemConfig c;
        c.scheme = LinkScheme::kVcsel;
        points.push_back({"vcsel   5-10G  fixed", c});
    }
    {
        SystemConfig c;
        c.scheme = LinkScheme::kVcsel;
        c.brMinGbps = 3.3;
        points.push_back({"vcsel 3.3-10G  fixed", c});
    }
    {
        SystemConfig c;
        c.scheme = LinkScheme::kModulator;
        points.push_back({"mod     5-10G  fixed", c});
    }
    {
        SystemConfig c;
        c.scheme = LinkScheme::kModulator;
        c.brMinGbps = 3.3;
        points.push_back({"mod   3.3-10G  fixed", c});
    }
    {
        SystemConfig c;
        c.scheme = LinkScheme::kModulator;
        c.opticalMode = OpticalMode::kTriLevel;
        points.push_back({"mod     5-10G  trilevel", c});
    }
    {
        SystemConfig c;
        c.policyMode = PolicyMode::kOnOff;
        points.push_back({"mod     5-10G  on/off", c});
    }

    RunProtocol protocol;
    protocol.warmup = 15000;
    protocol.measure = 30000;
    protocol.drainLimit = 40000;

    std::printf("design-space sweep at %.2f packets/cycle (uniform "
                "random, 64 racks)\n\n",
                rate);
    std::printf("%-26s %10s %10s %10s %12s\n", "design point",
                "latency_x", "power_x", "plp_x", "transitions");

    SystemConfig base;
    base.powerAware = false;
    TrafficSpec spec = TrafficSpec::uniform(rate, 4, 13);
    RunMetrics baseline = runExperiment(base, spec, protocol);

    for (const auto &pt : points) {
        RunMetrics m = runExperiment(pt.config, spec, protocol);
        NormalizedMetrics n = normalizeAgainst(m, baseline);
        std::printf("%-26s %10.3f %10.3f %10.3f %12llu\n", pt.name,
                    n.latencyRatio, n.powerRatio, n.plpRatio,
                    static_cast<unsigned long long>(m.transitions));
    }
    std::printf("\nbaseline: %.1f cycles, %.1f W across %zu links\n",
                baseline.avgLatency, baseline.avgPowerMw / 1000.0,
                static_cast<std::size_t>(1248));
    return 0;
}

/**
 * @file
 * Quickstart: build the paper's 64-rack power-aware opto-electronic
 * network with default parameters, offer uniform random traffic at a
 * medium rate, and print latency/power metrics for the power-aware
 * system next to its non-power-aware twin.
 *
 * Usage: quickstart [key=value ...]
 *   e.g. quickstart rate=2.0 link.scheme=vcsel policy.window=500
 */

#include <cstdio>

#include "common/config.hh"
#include "core/sweeps.hh"

using namespace oenet;

int
main(int argc, char **argv)
{
    Config config;
    config.parseArgs(argc, argv);

    SystemConfig cfg = SystemConfig::fromConfig(config);
    double rate = config.getDouble("rate", 2.0);
    int packet_len = static_cast<int>(config.getInt("packet_len", 4));
    config.rejectUnusedKeys();

    std::printf("oenet quickstart: %dx%d mesh, %d nodes/rack, "
                "%s links, %d levels %.1f-%.1f Gb/s\n",
                cfg.meshX, cfg.meshY, cfg.clusterSize,
                linkSchemeName(cfg.scheme), cfg.numLevels, cfg.brMinGbps,
                cfg.brMaxGbps);
    std::printf("offered load: %.2f packets/cycle, %d-flit packets\n\n",
                rate, packet_len);

    RunProtocol protocol;
    protocol.warmup = 20000;
    protocol.measure = 60000;

    PairedResult r = runPaired(
        cfg, TrafficSpec::uniform(rate, packet_len), protocol);

    std::printf("%-22s %12s %12s\n", "", "power-aware", "baseline");
    std::printf("%-22s %12.1f %12.1f\n", "avg latency (cycles)",
                r.powerAware.avgLatency, r.baseline.avgLatency);
    std::printf("%-22s %12.1f %12.1f\n", "p95 latency (cycles)",
                r.powerAware.p95Latency, r.baseline.p95Latency);
    std::printf("%-22s %12.1f %12.1f\n", "link power (mW)",
                r.powerAware.avgPowerMw, r.baseline.avgPowerMw);
    std::printf("%-22s %12.3f %12.3f\n", "normalized power",
                r.powerAware.normalizedPower, r.baseline.normalizedPower);
    std::printf("%-22s %12.3f %12.3f\n", "throughput (flits/cyc)",
                r.powerAware.throughputFlitsPerCycle,
                r.baseline.throughputFlitsPerCycle);
    std::printf("%-22s %12llu %12llu\n", "bit-rate transitions",
                static_cast<unsigned long long>(r.powerAware.transitions),
                static_cast<unsigned long long>(r.baseline.transitions));
    std::printf("\nvs baseline: latency x%.2f, power x%.2f "
                "(%.0f%% saved), power-latency product x%.2f\n",
                r.normalized.latencyRatio, r.normalized.powerRatio,
                100.0 * (1.0 - r.normalized.powerRatio),
                r.normalized.plpRatio);
    return 0;
}

/**
 * @file
 * Trace workflow end to end: synthesize a SPLASH-2-like trace (FFT, LU
 * or Radix), write it to disk in the oenet trace format, load it back,
 * replay it through the power-aware system, and report Table-3-style
 * normalized power-performance.
 *
 * Usage: splash_replay [trace=fft|lu|radix] [file=path] [key=value...]
 */

#include <cstdio>

#include "common/config.hh"
#include "common/log.hh"
#include "core/sweeps.hh"

using namespace oenet;

int
main(int argc, char **argv)
{
    Config config;
    config.parseArgs(argc, argv);
    SystemConfig cfg = SystemConfig::fromConfig(config);

    std::string kind_name = config.getString("trace", "fft");
    SplashKind kind;
    if (kind_name == "fft") {
        kind = SplashKind::kFft;
    } else if (kind_name == "lu") {
        kind = SplashKind::kLu;
    } else if (kind_name == "radix") {
        kind = SplashKind::kRadix;
    } else {
        fatal("trace must be fft, lu, or radix (got '%s')",
              kind_name.c_str());
    }
    std::string path =
        config.getString("file", "splash_" + kind_name + ".trc");

    // 1. Synthesize.
    SplashSynthParams sp;
    sp.kind = kind;
    sp.numNodes = cfg.numNodes();
    sp.duration = config.getUint("cycles", 150000);
    sp.rateScale = config.getDouble("scale", 0.6);
    sp.seed = config.getUint("seed", 61);
    config.rejectUnusedKeys();
    TraceData generated = generateSplashTrace(sp);
    std::printf("synthesized %s trace: %zu packets, mean %.1f flits "
                "over %llu cycles\n",
                kind_name.c_str(), generated.size(),
                traceMeanPacketLen(generated),
                static_cast<unsigned long long>(sp.duration));

    // 2. Round-trip through the trace file format.
    saveTrace(path, generated);
    TraceData trace = loadTrace(path);
    validateTrace(trace, cfg.numNodes());
    std::printf("wrote and re-read %s (%zu records)\n", path.c_str(),
                trace.size());

    // 3. Replay through power-aware and baseline systems.
    RunProtocol protocol;
    protocol.warmup = 0;
    protocol.measure = sp.duration;
    protocol.drainLimit = 100000;
    PairedResult r =
        runPaired(cfg, TrafficSpec::traceReplay(trace), protocol);

    std::printf("\n%-26s %12s %12s\n", "", "power-aware", "baseline");
    std::printf("%-26s %12.1f %12.1f\n", "avg latency (cycles)",
                r.powerAware.avgLatency, r.baseline.avgLatency);
    std::printf("%-26s %12.1f %12.1f\n", "avg power (W, all links)",
                r.powerAware.avgPowerMw / 1000.0,
                r.baseline.avgPowerMw / 1000.0);
    std::printf("%-26s %12llu %12llu\n", "bit-rate transitions",
                static_cast<unsigned long long>(
                    r.powerAware.transitions),
                static_cast<unsigned long long>(
                    r.baseline.transitions));
    std::printf("\nnormalized (Table 3 style): latency x%.2f, power "
                "x%.2f, power-latency product x%.2f\n",
                r.normalized.latencyRatio, r.normalized.powerRatio,
                r.normalized.plpRatio);
    return 0;
}

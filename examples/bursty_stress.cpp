/**
 * @file
 * Stress the power-aware policy with self-similar traffic — burstiness
 * at every time scale, the hardest case for a windowed controller —
 * and print periodic power reports that break the savings down by link
 * class (injection / ejection / inter-router).
 *
 * Usage: bursty_stress [model=selfsimilar|onoff] [rate=1.5]
 *                      [cycles=150000] [key=value ...]
 */

#include <cstdio>
#include <memory>

#include "common/config.hh"
#include "common/log.hh"
#include "core/poe_system.hh"
#include "network/power_report.hh"
#include "traffic/bursty.hh"

using namespace oenet;

int
main(int argc, char **argv)
{
    Config config;
    config.parseArgs(argc, argv);
    SystemConfig cfg = SystemConfig::fromConfig(config);

    const Cycle total = config.getUint("cycles", 150000);
    const double rate = config.getDouble("rate", 1.5);
    std::string model = config.getString("model", "selfsimilar");
    const std::uint64_t seed = config.getUint("seed", 3);
    config.rejectUnusedKeys();

    PoeSystem sys(cfg);
    std::unique_ptr<TrafficSource> traffic;
    if (model == "selfsimilar") {
        SelfSimilarTraffic::Params p;
        p.numNodes = cfg.numNodes();
        p.targetRate = rate;
        p.seed = seed;
        traffic = std::make_unique<SelfSimilarTraffic>(p);
        std::printf("self-similar traffic: %d Pareto on/off sources, "
                    "target %.2f pkts/cycle\n",
                    p.numSources, p.targetRate);
    } else if (model == "onoff") {
        OnOffTraffic::Params p;
        p.numNodes = cfg.numNodes();
        p.burstRate = rate * 3.0;
        p.idleRate = rate / 20.0;
        p.seed = seed;
        traffic = std::make_unique<OnOffTraffic>(p);
        std::printf("on/off traffic: bursts %.2f pkts/cycle, idle "
                    "%.3f, mean rate %.2f\n",
                    p.burstRate, p.idleRate,
                    OnOffTraffic(p).meanRate());
    } else {
        fatal("model must be selfsimilar or onoff (got '%s')",
              model.c_str());
    }
    sys.setTraffic(std::move(traffic));
    sys.startMeasurement();

    const Cycle report_every = total / 5;
    for (Cycle t = 0; t < total; t += report_every) {
        sys.run(report_every);
        PowerReport report = makePowerReport(sys.network(), sys.now());
        std::fputs(report.toString().c_str(), stdout);
    }

    sys.stopMeasurement();
    sys.setTraffic(nullptr);
    sys.awaitDrain(300000);
    RunMetrics m = sys.metrics();
    std::printf("\nrun summary: %s\n", m.summary().c_str());
    return 0;
}

#include "core/experiment.hh"

#include <algorithm>

#include "common/log.hh"
#include "common/rng.hh"

namespace oenet {

TrafficSpec
TrafficSpec::uniform(double rate, int len, std::uint64_t seed)
{
    TrafficSpec s;
    s.kind = Kind::kUniform;
    s.rate = rate;
    s.packetLen = len;
    s.seed = seed;
    return s;
}

TrafficSpec
TrafficSpec::hotspot(std::vector<RatePhase> phases, int len,
                     std::uint64_t seed)
{
    TrafficSpec s;
    s.kind = Kind::kHotspot;
    s.phases = std::move(phases);
    s.packetLen = len;
    s.seed = seed;
    return s;
}

TrafficSpec
TrafficSpec::traceReplay(const TraceData &trace)
{
    TrafficSpec s;
    s.kind = Kind::kTrace;
    s.trace = &trace;
    return s;
}

std::unique_ptr<TrafficSource>
makeTraffic(const TrafficSpec &spec, const SystemConfig &config)
{
    if (spec.rate < 0.0)
        fatal("makeTraffic: negative injection rate %g", spec.rate);
    if (spec.packetLen < 1)
        fatal("makeTraffic: packet length must be >= 1 flit, got %d",
              spec.packetLen);
    switch (spec.kind) {
      case TrafficSpec::Kind::kUniform: {
        UniformRandomTraffic::Params p;
        p.numNodes = config.numNodes();
        p.rate = spec.rate;
        p.packetLen = spec.packetLen;
        p.seed = spec.seed;
        return std::make_unique<UniformRandomTraffic>(p);
      }
      case TrafficSpec::Kind::kHotspot: {
        HotspotTraffic::Params p;
        p.numNodes = config.numNodes();
        p.phases = spec.phases;
        // The default hot node is the paper's rack-(3,5)-node-4 (id
        // 348); fold it into range on smaller test systems.
        p.hotNode = spec.hotNode %
                    static_cast<NodeId>(config.numNodes());
        p.hotWeight = spec.hotWeight;
        p.packetLen = spec.packetLen;
        p.seed = spec.seed;
        return std::make_unique<HotspotTraffic>(p);
      }
      case TrafficSpec::Kind::kPermutation: {
        if (!config.meshFamily())
            fatal("makeTraffic: permutation patterns are defined by "
                  "mesh coordinates and do not apply to topology=%s "
                  "(use uniform or hotspot)",
                  topologyKindName(config.topology));
        PermutationTraffic::Params p;
        p.pattern = spec.pattern;
        p.numNodes = config.numNodes();
        p.meshX = config.meshX;
        p.meshY = config.meshY;
        p.clusterSize = config.clusterSize;
        p.rate = spec.rate;
        p.packetLen = spec.packetLen;
        p.seed = spec.seed;
        return std::make_unique<PermutationTraffic>(p);
      }
      case TrafficSpec::Kind::kTrace: {
        if (spec.trace == nullptr)
            fatal("makeTraffic: trace spec without trace data");
        return std::make_unique<TraceSource>(*spec.trace);
      }
    }
    panic("makeTraffic: bad spec kind");
}

namespace {

/** Run @p measure cycles in series.bin-cycle steps, appending each
 *  step's offered rate, normalized power and mean latency of the
 *  packets ejected in it. */
void
runBinned(PoeSystem &sys, Cycle measure, TimelineResult &series)
{
    if (series.bin == 0)
        fatal("runExperiment: a timeline needs bin > 0");
    double base = sys.network().baselinePowerMw();
    double prev_integral =
        sys.network().totalPowerIntegralMwCycles(sys.now());
    std::uint64_t prev_created = sys.measuredCreated();
    double prev_lat_sum = sys.latencyStat().sum();
    std::size_t prev_lat_n = sys.latencyStat().count();

    for (Cycle t = 0; t < measure; t += series.bin) {
        Cycle step = std::min(series.bin, measure - t);
        sys.run(step);

        double integral =
            sys.network().totalPowerIntegralMwCycles(sys.now());
        series.normalizedPower.push_back(
            (integral - prev_integral) /
            (static_cast<double>(step) * base));
        prev_integral = integral;

        std::uint64_t created = sys.measuredCreated();
        series.offeredRate.push_back(
            static_cast<double>(created - prev_created) /
            static_cast<double>(step));
        prev_created = created;

        double lat_sum = sys.latencyStat().sum();
        std::size_t lat_n = sys.latencyStat().count();
        series.avgLatency.push_back(
            lat_n > prev_lat_n
                ? (lat_sum - prev_lat_sum) /
                      static_cast<double>(lat_n - prev_lat_n)
                : 0.0);
        prev_lat_sum = lat_sum;
        prev_lat_n = lat_n;
    }
}

} // namespace

RunMetrics
runExperiment(const SystemConfig &config, const TrafficSpec &spec,
              const RunProtocol &protocol, const TraceOptions &trace,
              TimelineResult *series)
{
    SystemConfig cfg = config;
    // An unset fault seed follows the traffic seed (decorrelated by the
    // stream-splitting hash) so every sweep point gets an independent,
    // reproducible fault history with no extra flags.
    if (cfg.fault.enabled && cfg.fault.seed == 0)
        cfg.fault.seed = deriveStreamSeed(spec.seed, 0x0fa117u);
    PoeSystem sys(cfg);
    sys.setTraffic(makeTraffic(spec, cfg));
    if (trace.sink)
        sys.setTraceSink(trace.sink, cfg.metricsIntervalCycles);
    sys.run(protocol.warmup);
    sys.startMeasurement();
    if (series)
        runBinned(sys, protocol.measure, *series);
    else
        sys.run(protocol.measure);
    sys.stopMeasurement();
    sys.awaitDrain(protocol.drainLimit);
    RunMetrics m = sys.metrics();
    if (cfg.conservationAuditEnabled()) {
        // Detach the sink before the audit's settle cycles so the
        // trace ends exactly where the untraced run's would; nothing
        // below emits events.
        if (trace.sink)
            sys.setTraceSink(nullptr);
        m.auditFailures = sys.auditConservation();
    }
    return m;
}

double
zeroLoadLatency(const SystemConfig &config, int packet_len,
                std::uint64_t seed)
{
    // A trickle light enough that packets essentially never queue.
    TrafficSpec spec = TrafficSpec::uniform(0.01, packet_len, seed);
    RunProtocol protocol;
    protocol.warmup = 5000;
    protocol.measure = 60000;
    RunMetrics m = runExperiment(config, spec, protocol);
    if (m.packetsMeasured == 0)
        panic("zeroLoadLatency: no packets measured");
    return m.avgLatency;
}

double
findSaturationRate(const SystemConfig &config, int packet_len,
                   double rate_hi, const RunProtocol &protocol)
{
    double zero_load = zeroLoadLatency(config, packet_len);
    double threshold = 2.0 * zero_load;
    double lo = 0.0;
    double hi = rate_hi;

    // First make sure the upper bound actually saturates.
    RunMetrics top = runExperiment(
        config, TrafficSpec::uniform(hi, packet_len), protocol);
    if (top.avgLatency <= threshold && top.drained)
        return hi; // never saturates within the probed range

    for (int iter = 0; iter < 7; iter++) {
        double mid = (lo + hi) / 2.0;
        RunMetrics m = runExperiment(
            config, TrafficSpec::uniform(mid, packet_len), protocol);
        bool saturated = m.avgLatency > threshold || !m.drained;
        if (saturated)
            hi = mid;
        else
            lo = mid;
    }
    return (lo + hi) / 2.0;
}

} // namespace oenet

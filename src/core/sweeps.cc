#include "core/sweeps.hh"

namespace oenet {

SystemConfig
baselineConfig(const SystemConfig &config)
{
    SystemConfig base = config;
    base.powerAware = false;
    return base;
}

PairedResult
runPaired(const SystemConfig &config, const TrafficSpec &spec,
          const RunProtocol &protocol)
{
    PairedResult r;
    r.powerAware = runExperiment(config, spec, protocol);
    r.baseline = runExperiment(baselineConfig(config), spec, protocol);
    r.normalized = normalizeAgainst(r.powerAware, r.baseline);
    return r;
}

TimelineResult
runTimeline(const SystemConfig &config, const TrafficSpec &spec,
            Cycle total, Cycle bin, Cycle warmup,
            const TraceOptions &trace)
{
    TimelineResult result;
    result.bin = bin;
    result.metrics = runExperiment(config, spec, RunProtocol{warmup, total},
                                   trace, &result);
    return result;
}

} // namespace oenet

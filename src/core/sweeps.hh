/**
 * @file
 * Shared drivers for the figure-regeneration benches: paired
 * (power-aware vs. baseline) runs, and time-series capture of
 * injection rate / normalized power / rolling latency over a run —
 * the raw series behind Figs. 6 and 7. Both are thin calls into
 * runExperiment, the one run protocol.
 */

#ifndef OENET_CORE_SWEEPS_HH
#define OENET_CORE_SWEEPS_HH

#include <vector>

#include "core/experiment.hh"

namespace oenet {

/** A power-aware run normalized against its non-power-aware twin
 *  (same traffic, same seed, links pinned at max). */
struct PairedResult
{
    RunMetrics powerAware;
    RunMetrics baseline;
    NormalizedMetrics normalized;
};

PairedResult runPaired(const SystemConfig &config,
                       const TrafficSpec &spec,
                       const RunProtocol &protocol);

/** Copy of @p config with power-awareness disabled (the baseline). */
SystemConfig baselineConfig(const SystemConfig &config);

/** runExperiment over RunProtocol{warmup, total} (default drain
 *  limit), its measure phase sampled every @p bin cycles. */
TimelineResult runTimeline(const SystemConfig &config,
                           const TrafficSpec &spec, Cycle total,
                           Cycle bin, Cycle warmup = 0,
                           const TraceOptions &trace = {});

} // namespace oenet

#endif // OENET_CORE_SWEEPS_HH

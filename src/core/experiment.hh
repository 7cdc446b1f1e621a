/**
 * @file
 * Experiment protocol: declarative traffic specs, the
 * warmup/measure/drain run procedure, zero-load latency, and the
 * saturation-throughput search (Section 4.1: throughput is the
 * injection rate at which average latency exceeds twice the zero-load
 * latency).
 *
 * runExperiment is the only run protocol. Every sweep point, timeline
 * bin series (Figs. 6-7) and paired run goes through it, so fault-seed
 * derivation, the drain and the conservation audit apply to each run
 * alike; a timeline is the same run with its measure phase walked in
 * bins.
 */

#ifndef OENET_CORE_EXPERIMENT_HH
#define OENET_CORE_EXPERIMENT_HH

#include <memory>
#include <vector>

#include "core/poe_system.hh"
#include "traffic/hotspot.hh"
#include "traffic/permutation.hh"
#include "traffic/splash_synth.hh"
#include "traffic/trace.hh"
#include "traffic/uniform.hh"

namespace oenet {

/** Declarative description of a workload, so sweep drivers can rebuild
 *  fresh sources per run. */
struct TrafficSpec
{
    enum class Kind
    {
        kUniform,
        kHotspot,
        kPermutation,
        kTrace,
    };

    Kind kind = Kind::kUniform;
    double rate = 1.0; ///< packets/cycle (uniform & permutation)
    int packetLen = 4;
    std::uint64_t seed = 1;

    // Hotspot.
    std::vector<RatePhase> phases;
    NodeId hotNode = 348;
    int hotWeight = 4;

    // Permutation.
    PermutationPattern pattern = PermutationPattern::kTranspose;

    // Trace (not owned; must outlive runs).
    const TraceData *trace = nullptr;

    static TrafficSpec uniform(double rate, int len = 4,
                               std::uint64_t seed = 1);
    static TrafficSpec hotspot(std::vector<RatePhase> phases,
                               int len = 4, std::uint64_t seed = 1);
    static TrafficSpec traceReplay(const TraceData &trace);
};

/** Instantiate the source a spec describes for a given system size. */
std::unique_ptr<TrafficSource> makeTraffic(const TrafficSpec &spec,
                                           const SystemConfig &config);

/** Phases of a standard run. */
struct RunProtocol
{
    Cycle warmup = 20000;
    Cycle measure = 100000;
    Cycle drainLimit = 300000;
};

/** Optional event tracing for a run (see trace/trace.hh). The power
 *  snapshot period comes from SystemConfig::metricsIntervalCycles, so
 *  a traced run and its config validate together. */
struct TraceOptions
{
    TraceSink *sink = nullptr; ///< not owned; must outlive the run
};

/** Series sampled every `bin` cycles over a run's measure phase:
 *  entry k covers measure cycles [k*bin, (k+1)*bin), the last entry
 *  whatever remains. */
struct TimelineResult
{
    Cycle bin = 0;
    std::vector<double> offeredRate;     ///< packets/cycle in each bin
    std::vector<double> normalizedPower; ///< avg over each bin
    std::vector<double> avgLatency;      ///< packets ejected in bin
    RunMetrics metrics;                  ///< whole-run rollup
};

/** Build a system, run the protocol, return the metrics. An unset
 *  fault seed (fault.seed == 0) is derived from the traffic seed. With
 *  @p series set, the measure phase runs in series->bin-cycle steps
 *  (bin must be > 0) and appends one sample per step; the simulation
 *  is otherwise the same, so the metrics equal an unbinned run's. */
RunMetrics runExperiment(const SystemConfig &config,
                         const TrafficSpec &spec,
                         const RunProtocol &protocol,
                         const TraceOptions &trace = {},
                         TimelineResult *series = nullptr);

/** Latency of a packet on an empty network (avg over a light trickle);
 *  the reference for the 2x saturation rule. */
double zeroLoadLatency(const SystemConfig &config, int packet_len,
                       std::uint64_t seed = 7);

/** Binary-search the saturation throughput (packets/cycle) under
 *  uniform random traffic. */
double findSaturationRate(const SystemConfig &config, int packet_len,
                          double rate_hi, const RunProtocol &protocol);

} // namespace oenet

#endif // OENET_CORE_EXPERIMENT_HH

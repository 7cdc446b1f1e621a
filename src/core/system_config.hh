/**
 * @file
 * One struct holding every knob of the power-aware opto-electronic
 * networked system, with the paper's Section 4.1 values as defaults:
 * 8x8 mesh of 64 racks, 8 nodes each, 625 MHz routers, 16-flit input
 * buffers, 16-bit flits, 10 Gb/s links with 6 bit-rate levels over
 * 5-10 Gb/s, T_br = 20 cycles, T_v = 100 cycles, T_w = 1000 cycles,
 * Table 1 thresholds.
 *
 * Convertible from a generic Config (key=value) so every example and
 * bench accepts the same flags.
 */

#ifndef OENET_CORE_SYSTEM_CONFIG_HH
#define OENET_CORE_SYSTEM_CONFIG_HH

#include <optional>

#include "common/config.hh"
#include "fault/fault.hh"
#include "network/network.hh"
#include "policy/controller.hh"

namespace oenet {

struct SystemConfig
{
    // Topology. meshX/meshY/clusterSize parameterize the mesh family
    // (mesh, torus, cmesh); fatTreeArity is the fat-tree switch radix.
    TopologyKind topology = TopologyKind::kMesh;
    int meshX = 8;
    int meshY = 8;
    int clusterSize = 8;
    int fatTreeArity = 4;

    // Router microarchitecture.
    int numVcs = 2;
    int bufferDepthPerPort = 16;
    RoutingAlgo routing = RoutingAlgo::kXY;

    // Links.
    LinkScheme scheme = LinkScheme::kModulator;
    double brMinGbps = 5.0;
    double brMaxGbps = 10.0;
    int numLevels = 6;
    double vmaxV = 1.8;
    Cycle freqTransitionCycles = 20;  ///< T_br
    Cycle voltTransitionCycles = 100; ///< T_v
    Cycle propagationCycles = 1;
    LinkPowerParams power{};
    double offPowerMw = 2.0;
    /** Wake settle time after a gate-off (OpticalLink::Params). */
    Cycle wakeSettleCycles = 10;

    /** Leakage + per-link thermal model (phy/thermal.hh); off by
     *  default, which keeps all outputs byte-identical to the
     *  leakage-free configuration. */
    ThermalParams thermal{};

    // Policy.
    bool powerAware = true;
    PolicyMode policyMode = PolicyMode::kDvs;
    Cycle windowCycles = 1000; ///< T_w
    HistoryDvsParams policy{};
    OpticalMode opticalMode = OpticalMode::kFixed;
    LaserPowerState::Params laser{};
    OnOffController::Params onOff{};
    int minLevel = 0;
    int staticLevel = kInvalid;
    bool senderBacklogEscalation = true;
    int senderBacklogFlits = 8;
    ProportionalDvsParams proportional{};

    /** Measured operating points from a calibration file, replacing
     *  the linear brMin..brMax table when present. */
    std::optional<BitrateLevelTable> measuredLevels;

    /** Fault injection (off by default; see fault/fault.hh). */
    FaultParams fault{};

    /** Idle elision: park quiescent routers/nodes instead of ticking
     *  them every cycle (kernel active-set scheduler). Simulated
     *  outcomes are bit-identical either way; off exists for
     *  double-checking exactly that. */
    bool idleElision = true;

    /** Shard domains for the sharded kernel: the topology is
     *  partitioned into this many per-thread shards exchanging
     *  boundary flits/credits through phase-separated queues. Output
     *  is byte-identical at every value (docs/DETERMINISM.md); 1 runs
     *  the same phase structure with no worker threads. 0 (the
     *  default) means auto: resolvedShards() against the cores the
     *  run may use. */
    int shards = 0;

    /** Routers a shard must own before auto sharding adds it: below
     *  this, the per-cycle barrier costs more than the shard's ticks
     *  save (crossover table in EXPERIMENTS.md, "Sharded kernel
     *  runbook"). Keeps the paper's 8x8 fabric serial. */
    static constexpr int kMinRoutersPerShard = 64;

    /** The shard count this configuration runs with on @p cores
     *  cores: an explicit shards >= 1 as given; auto (0) as
     *  max(1, min(cores, routers / kMinRoutersPerShard)). */
    int resolvedShards(int cores) const;

    /** Cycles between power snapshots when a trace sink is attached
     *  (PoeSystem::setTraceSink). Must be > 0 — disable snapshots by
     *  not attaching a sink, not by zeroing the interval. */
    Cycle metricsIntervalCycles = 1000;

    /** End-of-run flit/credit conservation audit (PoeSystem::
     *  auditConservation), run by runExperiment/runTimeline after the
     *  metrics are captured. Unset (the default) enables it in every
     *  build type; set to force it on or off. Violations surface as
     *  RunMetrics::auditFailures, which the sweep runner turns into a
     *  failed outcome — never an abort. */
    std::optional<bool> conservationAudit;

    /** conservationAudit, on when unset. */
    bool conservationAuditEnabled() const;

    /** Topology knobs bundled for makeTopology(). */
    TopologyParams topologyParams() const;

    int numNodes() const { return topologyParams().numNodes(); }

    /** True for fabrics addressed by mesh coordinates (mesh, torus,
     *  cmesh) — the ones permutation traffic patterns understand. */
    bool meshFamily() const
    {
        return topology != TopologyKind::kFatTree;
    }

    /** Parse overrides from a Config (keys documented in README). */
    static SystemConfig fromConfig(const Config &config);

    /**
     * Reject nonsensical configurations with an actionable fatal()
     * message naming the offending field and its constraint. Called by
     * fromConfig() and the PoeSystem constructor, so a bad config
     * fails fast whether it came from flags or from code.
     */
    void validate() const;

    Network::Params networkParams() const;
    PolicyEngine::Params engineParams() const;
};

} // namespace oenet

#endif // OENET_CORE_SYSTEM_CONFIG_HH

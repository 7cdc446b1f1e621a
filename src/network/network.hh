/**
 * @file
 * The assembled opto-electronic networked system: routers, nodes, and
 * the full complement of power-aware optical links wiring them
 * together, on whatever fabric the Topology parameters select (the
 * paper's system is the default 8x8 mesh with 8 nodes per rack).
 *
 * The Network owns the topology, routers, nodes, and links; registers
 * the ticking components with the Kernel; and aggregates power/energy
 * across all links. It consumes only the abstract Topology interface —
 * fabric-specific geometry never leaks past construction. Policy
 * controllers attach from outside (see policy/) — a Network with no
 * controllers is exactly the non-power-aware baseline, every link
 * pinned at the maximum bit rate.
 */

#ifndef OENET_NETWORK_NETWORK_HH
#define OENET_NETWORK_NETWORK_HH

#include <memory>
#include <vector>

#include "network/boundary.hh"
#include "network/node.hh"
#include "network/topology.hh"
#include "phy/power_ledger.hh"
#include "router/router.hh"
#include "trace/trace.hh"

namespace oenet {

class FaultInjector;

class Network
{
  public:
    struct Params
    {
        TopologyParams topo{};
        Router::Params router{};
        OpticalLink::Params link{};
        BitrateLevelTable levels =
            BitrateLevelTable::linear(5.0, 10.0, 6);
        /** A fault injector will be attached (setFaultInjector). Its
         *  reliability layer gives the receiver-side link walk side
         *  effects, so every inter-router link is channeled and its
         *  walk runs in the source router, which pins the walk's
         *  cycles (boundary.hh); without it, links inside one shard
         *  are proxy-free. */
        bool faults = false;
        /** Leakage + thermal model (phy/thermal.hh); disabled by
         *  default, which keeps every output byte-identical to the
         *  leakage-free era. */
        ThermalParams thermal{};
    };

    /** Build the fabric and register its routers and nodes with
     *  @p kernel, partitioned across kernel.shardCount() shards
     *  (Topology::partition). Output is byte-identical at every shard
     *  count; see docs/DETERMINISM.md. */
    Network(Kernel &kernel, const Params &params);

    Network(const Network &) = delete;
    Network &operator=(const Network &) = delete;

    // ------------------------------------------------------------------
    // Structure
    // ------------------------------------------------------------------

    const Topology &topology() const { return *topo_; }
    int numRouters() const { return topo_->numRouters(); }
    int numNodes() const { return topo_->numNodes(); }
    std::size_t numLinks() const { return links_.size(); }

    Router &router(int i) { return *routers_.at(static_cast<std::size_t>(i)); }
    Node &node(NodeId n) { return *nodes_.at(n); }
    OpticalLink &link(std::size_t i) { return *links_.at(i); }
    const LinkSpec &linkSpec(std::size_t i) const { return specs_.at(i); }

    /** The OccupancyProvider + input port at the far end of link @p i,
     *  i.e. where the policy reads B_u for that link. */
    std::pair<const OccupancyProvider *, int>
    downstreamOf(std::size_t i) const;

    // ------------------------------------------------------------------
    // Traffic entry
    // ------------------------------------------------------------------

    /** Create a packet at @p src destined to @p dst with @p len flits.
     *  Returns its PacketId. */
    PacketId injectPacket(NodeId src, NodeId dst, int len, Cycle now);

    /** Observer called on every packet ejection. */
    void setPacketSink(PacketSink *sink);

    /** Attach @p sink to every link (null detaches). Trace ids are the
     *  link indices, which are deterministic (enumeration order). */
    void setTraceSink(TraceSink *sink);

    /** Link identity table for TraceSink::beginRun. */
    std::vector<TraceLinkInfo> traceLinkTable() const;

    /**
     * Attach the system's fault injector to every link (per-link
     * stream index = link index, same as the trace id) and arm the
     * routers' stranded-wormhole reclaim. Null detaches. Attaching
     * needs a network constructed with Params::faults.
     */
    void setFaultInjector(FaultInjector *faults);

    /** Restart every link's cumulative statistics at @p now (see
     *  OpticalLink::resetStats). Packet/flit counters are unaffected. */
    void resetStats(Cycle now);

    // ------------------------------------------------------------------
    // Aggregates
    // ------------------------------------------------------------------

    /** Instantaneous link power (dynamic + leakage when the thermal
     *  model is on), mW, summed over all links: a flat scan of the SoA
     *  ledger after advancePendingPower. */
    double totalPowerMw(Cycle now);

    /** Integral of total link power in mW-cycles since t=0 (dynamic +
     *  leakage when the thermal model is on). */
    double totalPowerIntegralMwCycles(Cycle now);

    /** Leakage aggregates (exactly 0 with the thermal model off). */
    double totalLeakagePowerMw() const { return ledger_.totalLeakMw(); }
    double totalLeakageIntegralMwCycles(Cycle now) const
    {
        return ledger_.totalLeakIntegralMwCycles(now);
    }

    /** The system power ledger: row i is link i's power accounting. */
    LinkPowerLedger &powerLedger() { return ledger_; }
    const LinkPowerLedger &powerLedger() const { return ledger_; }

    /**
     * Advance every pending link (LinkPowerLedger::setPending: mid-
     * transition, or fault-attached and not yet failed) to @p now, in
     * link-id order, so the ledger columns are current before a flat
     * scan; no other link can have changed since its last touch.
     * Driving thread only, between phases.
     */
    void advancePendingPower(Cycle now);

    /** Power of the same system with every link at max rate, mW. */
    double baselinePowerMw() const { return baselinePowerMw_; }

    std::uint64_t packetsInjected() const { return packetsInjected_; }
    std::uint64_t packetsEjected() const;
    std::uint64_t flitsInjected() const;
    std::uint64_t flitsEjected() const;

    /** Where the flits and returned credits are, from one walk over
     *  every node, router, link and boundary channel (the
     *  conservation audit's settle test and verdict). Driving thread,
     *  between steps. */
    struct Census
    {
        /** Waiting in source queues, not yet in the fabric. */
        std::uint64_t queuedFlits = 0;
        /** Buffered or latched in routers, on links, or staged in
         *  boundary channels. */
        std::uint64_t fabricFlits = 0;
        /** Returned to a router or node and not yet applied. */
        std::uint64_t pendingCredits = 0;

        /** No flit in the fabric and no credit pending (source queues
         *  may still hold flits). */
        bool settled() const
        {
            return fabricFlits == 0 && pendingCredits == 0;
        }
    };
    Census census() const;

    /** Flits anywhere in flight: source queues, buffers, links. */
    std::uint64_t flitsInSystem() const
    {
        Census c = census();
        return c.queuedFlits + c.fabricFlits;
    }

    /** Synthetic poison tails retired at nodes (counterpart of
     *  poisonedWormholes, which counts their creation). */
    std::uint64_t poisonTailsRetired() const;

    // Fault/resilience aggregates (all zero when faults are off).

    /** Links that have hard-failed so far. */
    int failedLinks() const;

    /** Corruption draws that fired (CRC failures), all links. */
    std::uint64_t flitsCorrupted() const;

    /** Link-layer retransmissions, all links. */
    std::uint64_t flitRetries() const;

    /** CDR loss-of-lock outages, all links. */
    std::uint64_t lockLossEvents() const;

    /** In-flight flits lost to hard failures, all links. */
    std::uint64_t flitsDroppedOnFail() const;

    /** Same, but immune to resetStats (whole-run accounting; the
     *  conservation audit balances lifetime counters). */
    std::uint64_t flitsDroppedOnFailLifetime() const;

    /** Flits discarded at dead router outputs, all routers. */
    std::uint64_t flitsDroppedDeadPort() const;

    /** Stranded wormholes closed with poison tails, all routers. */
    std::uint64_t poisonedWormholes() const;

    const BitrateLevelTable &levels() const { return levels_; }

    /** Shard owning router @p r (0-based; from Topology::partition). */
    int shardOf(int r) const
    {
        return shardOf_.at(static_cast<std::size_t>(r));
    }

    /** Inter-router links read through a BoundaryChannel (crossing
     *  shards, or any link of a faulted fabric; boundary.hh). */
    std::size_t numChannels() const { return channels_.size(); }

  private:

    std::unique_ptr<const Topology> topo_;
    BitrateLevelTable levels_;
    /** SoA power accounting (see phy/power_ledger.hh); declared before
     *  the links, whose rows it holds, so it outlives them. */
    LinkPowerLedger ledger_;
    std::vector<LinkSpec> specs_;
    std::vector<std::unique_ptr<Router>> routers_;
    std::vector<std::unique_ptr<Node>> nodes_;
    std::vector<std::unique_ptr<OpticalLink>> links_;

    // Boundary exchange: one channel per channeled inter-router link,
    // in link-enumeration order. publish_[s] lists the channels shard
    // s's thread staged into this cycle; the post-pass publishes and
    // clears them.
    std::vector<std::unique_ptr<BoundaryChannel>> channels_;
    std::vector<BoundaryChannel::PublishList> publish_;
    std::vector<int> shardOf_;
    bool faultModel_ = false; ///< Params::faults

    double baselinePowerMw_ = 0.0;
    PacketId nextPacketId_ = 1;
    std::uint64_t packetsInjected_ = 0;
};

} // namespace oenet

#endif // OENET_NETWORK_NETWORK_HH

/**
 * @file
 * 5-stage pipelined virtual-channel wormhole router (Section 3.1,
 * Fig. 4(b)).
 *
 * The router is topology-agnostic: the attached Topology defines the
 * port map (in the mesh family, ports 0..C-1 are injection/ejection
 * ports serving the C processing nodes of the rack and ports C..C+3
 * connect East/West/North/South neighbors) and the routing function,
 * including any VC-class restriction (torus dateline escape classes).
 * Each input port holds `bufferDepthPerPort` flits split evenly across
 * `numVcs` virtual channels; flow control is credit-based.
 *
 * Pipeline stages, one cycle each:
 *   RC  route computation      (head flit; XY dimension-order)
 *   VA  VC allocation          (separable, round-robin)
 *   SA  switch allocation      (input-first then output round-robin)
 *   ST  switch traversal       (output latch -> link)
 *   LT  link traversal         (modeled by OpticalLink)
 *
 * Within a tick the stages run downstream-first (ST, SA, VA, RC, then
 * link arrivals are drained into the buffers) so a flit advances at most
 * one stage per cycle. Which stage each VC and latch is in is recorded
 * once, as a bit in a 64-bit stage mask, and each stage walks only its
 * mask's set bits. Last comes the receiver walk of each channeled
 * output link, which stages what the link delivers next cycle into its
 * boundary channel (network/boundary.hh). The router core runs at a
 * fixed 625 MHz clock regardless of the attached links' bit rates
 * (Section 3.1): clock domain crossing is inside OpticalLink, which
 * simply refuses flits while serializing or retraining.
 */

#ifndef OENET_ROUTER_ROUTER_HH
#define OENET_ROUTER_ROUTER_HH

#include <cstdint>
#include <string>
#include <vector>

#include "link/endpoints.hh"
#include "link/link.hh"
#include "network/topology.hh"
#include "router/allocators.hh"
#include "router/buffer.hh"
#include "router/routing.hh"
#include "sim/kernel.hh"

namespace oenet {

class BoundaryChannel;

class Router final : public Ticking,
                     public CreditSink,
                     public OccupancyProvider
{
  public:
    struct Params
    {
        int numVcs = 2;
        int bufferDepthPerPort = 16; ///< flits, split across the VCs
        RoutingAlgo routing = RoutingAlgo::kXY;
    };

    Router(std::string name, int router_id, const Topology &topo,
           const Params &params);

    /** Attach the link feeding input @p port, along with the upstream
     *  credit sink (sender) and the sender's output-port index. */
    void connectInput(int port, OpticalLink *link, CreditSink *upstream,
                      int upstream_port);

    /**
     * Attach input @p port through a boundary channel instead of
     * polling @p link directly: arrivals are drained from the
     * channel's ready side, credits are returned into the channel,
     * and the link's hard-failure state is read from the channel's
     * published flag. The link's registered receiver is its source
     * router (connectOutputBoundary), not this one; @p link is kept
     * only for introspection (inputLink, policy stats). Used for every
     * channeled inter-router link (network/boundary.hh says which
     * are).
     */
    void connectInputBoundary(int port, OpticalLink *link,
                              BoundaryChannel *channel, int upstream_port);

    /** Attach the link driven by output @p port. @p downstream_vc_depth
     *  is the per-VC buffer capacity at the far end (initial credits). */
    void connectOutput(int port, OpticalLink *link,
                       int downstream_vc_depth);

    /**
     * Make this router the receiver of the link already connected to
     * output @p port, whose destination reads it through @p channel.
     * The last step of every tick at cycle t is then that link's
     * receiver walk: everything it delivers by t+1 is staged into the
     * channel, and a hard failure is staged once. The link wakes this
     * router one cycle before each receiver event (wake lead 1), and
     * nextWakeCycle keeps the same edge. The walk's trace events carry
     * @p trace_order (Kernel::setShardPassOrder), the key that sorts
     * them after every router and node tick.
     */
    void connectOutputBoundary(int port, BoundaryChannel *channel,
                               std::uint32_t trace_order);

    void tick(Cycle now) override;

    /**
     * Quiescence (idle elision): a router with empty buffers, no
     * latched flits, no VC in any pipeline state (routing, VC-alloc,
     * or active — an active VC may still owe a poison tail on a failed
     * input), and no pending credits has a no-op tick; it parks until
     * the earliest event any input link could hand it (arrival,
     * scheduled fault, transition end), or one cycle before the next
     * receiver event of a channeled output, whose walk it runs. Wake
     * edges: a flit accepted onto an input link or a channeled output
     * (OpticalLink::accept), a transition started on a faulted
     * channeled output, a returned credit, and a channel delivery.
     */
    Cycle nextWakeCycle(Cycle now) override;

    // CreditSink: the downstream receiver of output @p port returns a
    // credit for @p vc (applied at now+1).
    void returnCredit(int port, int vc, Cycle now) override;

    // OccupancyProvider over this router's *input* ports.
    double occupancyIntegral(int port, Cycle now) const override;
    int bufferCapacity(int port) const override;

    // ------------------------------------------------------------------
    // Introspection (tests, policy, stats)
    // ------------------------------------------------------------------

    int numPorts() const { return static_cast<int>(inputs_.size()); }
    int numVcs() const { return params_.numVcs; }
    int routerId() const { return routerId_; }
    const std::string &name() const { return name_; }

    /** Flits currently buffered at input @p port (all VCs). */
    int inputOccupancy(int port) const;

    /** Credits available for (output port, vc). */
    int outputCredits(int port, int vc) const;

    /** Initial credit pool of (output port, vc) — the downstream VC
     *  depth passed to connectOutput. At quiescence on a fault-free
     *  fabric, outputCredits must equal this (conservation audit). */
    int outputVcCapacity(int port, int vc) const;

    /** Returned credits not yet applied (empty at quiescence). */
    std::size_t pendingCreditCount() const
    {
        return pendingCredits_.size();
    }

    /** True if output VC is unallocated. */
    bool outputVcFree(int port, int vc) const;

    OpticalLink *outputLink(int port) const;
    OpticalLink *inputLink(int port) const;

    std::uint64_t flitsSwitched() const { return flitsSwitched_; }

    /** True if any flit is latched or routed toward output @p port
     *  (the on/off policy's wake condition). */
    bool outputWaiting(int port) const;

    /** Flits buffered in this router that are routed toward output
     *  @p port (the sender-side backlog the policy escalates on). */
    int bufferedFor(int port) const;

    /** Total flits buffered anywhere in this router: input buffers
     *  plus output latches (drain tests, the conservation audit). */
    int totalBufferedFlits() const;

    // ------------------------------------------------------------------
    // Graceful degradation (fault injection)
    // ------------------------------------------------------------------

    /**
     * Enable wormhole reclaim on hard-failed input links: an active
     * input VC that has been empty for @p cycles (its remaining flits
     * died with the link) is closed with a synthetic poison tail that
     * frees the allocated switch state hop by hop. 0 disables.
     */
    void setOrphanTimeout(Cycle cycles) { orphanTimeout_ = cycles; }

    /** Flits dropped at outputs whose link hard-failed. */
    std::uint64_t droppedDeadPort() const { return droppedDeadPort_; }

    /** Stranded wormholes closed with a synthetic poison tail. */
    std::uint64_t poisonedWormholes() const { return poisoned_; }

  private:
    /** Per-input-port wiring, read by the arrival drain and the park
     *  test; the per-VC pipeline state lives in the flat hot-state
     *  arrays and stage masks below. */
    struct InputPort
    {
        OpticalLink *link = nullptr;
        BoundaryChannel *boundary = nullptr; ///< set: drain via channel
        CreditSink *upstream = nullptr;
        int upstreamPort = kInvalid;
    };

    /** Hard-failure state of the link feeding @p in, through the
     *  boundary flag when the input is channeled (the link object
     *  itself may be mid-walk on another shard's thread). */
    static bool inputFailed(const InputPort &in);

    struct PendingCredit
    {
        int port;
        int vc;
        Cycle effective;
    };

    RouteOption selectRoute(NodeId dst);
    std::uint64_t vcMaskForClass(int vc_class) const;
    void applyCredits(Cycle now);
    void reclaimOrphans(Cycle now);
    void stageSwitchTraversal(Cycle now);
    void stageSwitchAllocation(Cycle now);
    void stageVcAllocation(Cycle now);
    void stageRouteComputation(Cycle now);
    void drainArrivals(Cycle now);
    void walkBoundaryOutputs(Cycle now);

    /** Flat index of input/output VC (@p port, @p vc) into the
     *  hot-state arrays — the same flattening VA's request masks use. */
    int flatIdx(int port, int vc) const
    {
        return port * params_.numVcs + vc;
    }

    std::string name_;
    int routerId_;
    const Topology &topo_;
    Params params_;
    int vcDepth_;
    bool restrictedVcs_; ///< topology routes carry VC classes (torus)

    std::vector<InputPort> inputs_;

    // ------------------------------------------------------------------
    // Hot state, structure-of-arrays. Per-VC arrays are indexed
    // flatIdx(port, vc); per-port arrays by the port. The allocator
    // walks each touch one contiguous array per field instead of
    // striding across per-port/per-VC objects.
    // ------------------------------------------------------------------

    // Input VC route state; the stage a VC is in is its bit in the
    // stage masks at the end.
    std::vector<std::int16_t> vcOutPort_; ///< kInvalid until RC
    std::vector<std::int16_t> vcOutVc_;   ///< kInvalid until VA
    std::vector<std::uint64_t> vcOutVcMask_; ///< output VCs RC allows
    std::vector<Cycle> vcLastActivity_; ///< last push/pop (orphans)
    FlitSlab buffers_; ///< segment flatIdx(port, vc), depth vcDepth_
    std::vector<std::int32_t> portOcc_; ///< flits buffered per input port
    /** portOcc_ over time, per input port (occupancyIntegral). */
    std::vector<TimeWeighted> portOccTime_;
    /** Bit p: input p may have something to drain. Set by the input
     *  link's accept() (OpticalLink::setArrivalFlag) and permanently
     *  for channeled and fault-attached inputs; cleared once a
     *  fault-free link's ring is empty. The drain and the park scan
     *  visit only these ports. */
    std::uint64_t inputPending_ = 0;

    // Output VC credit state.
    std::vector<std::int32_t> outCredits_;
    std::vector<std::int32_t> outMaxCredits_; ///< initial pool

    // Per output port.
    std::vector<OpticalLink *> outLink_;
    std::vector<Flit> latch_; ///< valid where latchMask_ has the bit
    std::vector<RoundRobinArbiter> saArb_; ///< among input ports
    std::vector<RoundRobinArbiter> vaArb_; ///< among flattened input VCs

    std::vector<RoundRobinArbiter> saInputArb_; ///< per input port
    std::vector<PendingCredit> pendingCredits_;

    /** A channeled output: its link, whose receiver walk this router
     *  runs, the channel the walk stages into, and the walk's trace
     *  key. In connection (link-enumeration) order. */
    struct BoundaryOutput
    {
        OpticalLink *link;
        BoundaryChannel *channel;
        std::uint32_t traceOrder;
    };
    std::vector<BoundaryOutput> outBoundary_;

    std::uint64_t flitsSwitched_ = 0;
    std::uint64_t droppedDeadPort_ = 0;
    std::uint64_t poisoned_ = 0;
    Cycle orphanTimeout_ = 0;

    // Stage masks, the only record of each pipeline fact. An input VC
    // is in at most one of routingMask_, vcAllocMask_ and activeMask_
    // (in none: idle); latchMask_ says which latches hold a flit and
    // outAllocMask_ which output VCs an open wormhole owns. tick() and
    // nextWakeCycle() skip a stage whose mask is empty (the common case
    // on an idle fabric); a stage that runs walks only the set bits, in
    // ascending order, the order of a full scan, so every arbiter sees
    // the same request masks in the same sequence. ports * numVcs <= 64
    // (checked at construction) bounds every bit. occMask_ sits beside
    // portOcc_, the count it summarizes.
    std::uint64_t occMask_ = 0;   ///< bit p: portOcc_[p] > 0 (SA inputs)
    std::uint64_t latchMask_ = 0; ///< bit q: latch_[q] is full (ST walk)
    /** Bit flatIdx(p, v): head waiting for route computation. */
    std::uint64_t routingMask_ = 0;
    /** Bit flatIdx(p, v): routed, requesting an output VC. */
    std::uint64_t vcAllocMask_ = 0;
    /** Bit flatIdx(p, v): open wormhole holding output vcOutVc_ on
     *  vcOutPort_; it may still owe flits, or a poison tail on a failed
     *  input, even with an empty buffer. */
    std::uint64_t activeMask_ = 0;
    /** Bit flatIdx(q, ov): output VC ov of port q is allocated. */
    std::uint64_t outAllocMask_ = 0;

    /** Upper bound on ports (masks are 64-bit; VA flattens p*vcs+v). */
    static constexpr int kMaxPorts = 32;
};

} // namespace oenet

#endif // OENET_ROUTER_ROUTER_HH

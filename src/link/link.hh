/**
 * @file
 * Power-aware opto-electronic link (Sections 2-3.2).
 *
 * An OpticalLink is a unidirectional flit channel between a sender (a
 * router output port or a node's injection queue) and a receiver (a
 * router input port or a node's ejection buffer). It models:
 *
 *  - serialization at the current bit rate: at 10 Gb/s a 16-bit flit
 *    leaves every 625 MHz router cycle; at level br the transmitter is
 *    occupied for 10/br cycles per flit (fractional occupancy is
 *    tracked exactly);
 *  - a fixed propagation delay (fiber flight time);
 *  - the bit-rate/voltage transition state machine of Section 3.2.1:
 *    on an *up* transition the supply voltage ramps first (T_v cycles,
 *    link fully operational at the old rate), then the frequency
 *    switches (T_br cycles with the link disabled while the receiver
 *    CDR relocks); on a *down* transition the frequency drops first
 *    (T_br disabled), then the voltage ramps down (operational);
 *  - the optical power scale feeding the transmitter (set by the
 *    external-laser controller for modulator links, implied by Vdd for
 *    VCSEL links);
 *  - power/energy accounting through LinkPowerModel, integrated exactly
 *    as a piecewise-constant signal (no per-cycle work) in the link's
 *    row of a LinkPowerLedger, the one place link power is integrated;
 *  - utilization statistics for the policy controller: flits sent and
 *    the capacity integral, giving capacity-normalized utilization L_u.
 *
 * The link is passive: it has no tick. Time advances lazily — every
 * public entry point first walks the state machine up to `now`.
 *
 * With a FaultInjector attached (setFault), the link additionally
 * carries the link-layer reliability protocol: every flit is CRC-tagged
 * (conceptually; the simulator draws corruption from the BER of the
 * current operating point instead of flipping payload bits), a
 * corrupted flit fails its check at the receiver, which NACKs over a
 * reliable reverse control channel, and the sender — which holds every
 * unacknowledged flit in the in-flight ring, its retransmission
 * buffer — replays it after a bounded exponential backoff. Later flits
 * already in flight keep their arrival stamps and wait in the ring
 * (the receiver's reorder window), preserving wormhole flit order.
 * Scheduled faults (CDR lock loss, hard failure) are processed at
 * their exact cycles during the lazy advance walk.
 */

#ifndef OENET_LINK_LINK_HH
#define OENET_LINK_LINK_HH

#include <string>

#include "common/stats.hh"
#include "common/types.hh"
#include "common/units.hh"
#include "phy/bitrate_levels.hh"
#include "phy/laser_source.hh"
#include "phy/link_power.hh"
#include "router/flit.hh"
#include "trace/trace.hh"

namespace oenet {

class FaultInjector;
class LinkPowerLedger;
class Ticking;

/** What role a link plays in the system (used for reporting). */
enum class LinkKind
{
    kInjection,   ///< node -> router
    kEjection,    ///< router -> node
    kInterRouter, ///< router -> router
};

const char *linkKindName(LinkKind kind);

class OpticalLink
{
  public:
    struct Params
    {
        LinkScheme scheme = LinkScheme::kVcsel;
        LinkPowerParams power{};
        Cycle freqTransitionCycles = 20; ///< T_br (CDR relock, disabled)
        Cycle voltTransitionCycles = 100; ///< T_v (operational)
        Cycle propagationCycles = 1;      ///< fiber flight time
        int initialLevel = kInvalid;      ///< default: highest level
        double offPowerMw = 2.0;          ///< leakage when gated off
        /**
         * Laser/CDR settle time after a wake from the gated-off state.
         * For the first min(wakeSettleCycles, T_br) cycles of the
         * relock the transmitter is still stabilizing and draws gate-
         * off power, not the target level's full power. The pre-fix
         * accounting charged the full target power for the whole T_br
         * relock from the wake instant (0 restores that behavior).
         */
        Cycle wakeSettleCycles = 10;
    };

    /** Registers the link's row in @p ledger (the row id is the
     *  ledger's next link index). @p levels and @p ledger must outlive
     *  the link. */
    OpticalLink(std::string name, LinkKind kind,
                const BitrateLevelTable &levels, const Params &params,
                LinkPowerLedger &ledger);

    // ------------------------------------------------------------------
    // Data path: sender side
    // ------------------------------------------------------------------

    /** True if the sender may hand over one flit this cycle. The flit
     *  is accepted as soon as the transmitter frees up *within* cycle
     *  [now, now+1), so fractional serialization credit carries across
     *  cycles and the saturated rate matches the level's bit rate
     *  exactly. Inline fast path: a stable link needs no state walk. */
    bool canAccept(Cycle now)
    {
        // With faults attached the stable fast path is unsafe: a
        // scheduled failure may be due, and only the state walk in
        // canAcceptSlow discovers it.
        if (faults_ == nullptr && phase_ == Phase::kStable) {
            return inflightCount_ < kInflightCap &&
                   static_cast<double>(now) + 1.0 > nextFree_ + 1e-9;
        }
        return canAcceptSlow(now);
    }

    /** Hand one flit to the link. @pre canAccept(now). */
    void accept(Cycle now, const Flit &flit);

    // ------------------------------------------------------------------
    // Data path: receiver side
    // ------------------------------------------------------------------

    /** True if a flit has fully arrived by cycle @p now. Arrivals are
     *  stamped at accept() time, so without faults no state walk is
     *  needed; with faults the reliability layer must first replay any
     *  corrupted head-of-line flit. */
    bool hasArrival(Cycle now)
    {
        if (faults_ != nullptr)
            reliabilityAdvance(now);
        return inflightCount_ > 0 &&
               inflight_[inflightHead_].arrives <= now;
    }

    /** Pop the oldest arrived flit. @pre hasArrival(now). */
    Flit popArrival(Cycle now);

    /** Sender-side in-flight ring capacity (doubles as the replay
     *  buffer depth with faults attached). Receivers batching a drain
     *  can size their staging to 2x this. */
    static constexpr int kInflightCap = 16;

    /**
     * Pop every flit arrived by @p now into @p sink, in order; returns
     * the count. Equivalent to `while (hasArrival(now))
     * sink(popArrival(now))` but with no fault model attached it is a
     * single branch-light ring walk — arrival stamps are final, so
     * nothing re-checks the head between pops. With faults the
     * per-flit poll loop is kept: each pop can expose a corrupt head
     * whose replay walk (RNG draws, trace events) must run before the
     * next arrival test.
     */
    template <typename SinkFn>
    int drainArrivalsDue(Cycle now, SinkFn &&sink)
    {
        if (faults_ == nullptr) {
            int head = inflightHead_;
            int n = 0;
            while (n < inflightCount_ &&
                   inflight_[head].arrives <= now) {
                sink(inflight_[head].flit);
                head = (head + 1) & (kInflightCap - 1);
                n++;
            }
            inflightHead_ = head;
            inflightCount_ -= n;
            return n;
        }
        int n = 0;
        while (hasArrival(now)) {
            sink(popArrival(now));
            n++;
        }
        return n;
    }

    /** Flits accepted but not yet popped by the receiver. */
    int inFlight() const { return inflightCount_; }

    /**
     * Attach the receiving component (null detaches). accept() wakes
     * it at the flit's arrival cycle, so a receiver parked by the
     * idle-elision scheduler never misses a delivery. Wired by
     * Router::connectInput / Node::connectEjection.
     */
    void setReceiver(Ticking *receiver) { receiver_ = receiver; }

    /**
     * Arrival flag of a receiver that serves many inputs: accept() ORs
     * @p bit into *@p flags, so the receiver can visit only the inputs
     * with something in flight instead of polling every link each
     * tick (Router::drainArrivals). Attaching a fault model sets the
     * bit too — a faulted link is polled on every receiver tick. Null
     * detaches.
     */
    void setArrivalFlag(std::uint64_t *flags, std::uint64_t bit)
    {
        arrivalFlags_ = flags;
        arrivalBit_ = bit;
    }

    /**
     * Wake the receiver @p lead cycles *before* each event instead of
     * at it. A boundary shuttle receives on behalf of a router in
     * another shard and must forward a flit one cycle ahead of its
     * arrival so the phase-separated handoff delivers it on time
     * (its tick at t polls hasArrival(t+1)); everything else keeps the
     * default lead of 0. Wake cycles never go below the event's
     * request cycle minus the lead, floored at 0.
     */
    void setReceiverWakeLead(Cycle lead) { receiverWakeLead_ = lead; }

    /**
     * Earliest future cycle at which this link could hand its receiver
     * something to do — the head in-flight arrival, and, when a fault
     * injector is attached (receivers then advance the link on every
     * poll), the next scheduled lock loss, the hard-failure cycle, and
     * the end of any transition phase in progress. kNeverCycle when
     * nothing is pending. A quiescing receiver re-arms its wake from
     * this; the extra fault/phase terms keep lazily-emitted trace
     * events at the same file positions as an every-cycle poller.
     */
    Cycle nextReceiverEventCycle() const;

    // ------------------------------------------------------------------
    // Power control
    // ------------------------------------------------------------------

    /** Begin a one-step transition to @p level.
     *  @pre !transitionInProgress(now). */
    void requestLevel(Cycle now, int level);

    /** True while a voltage ramp or frequency switch is underway. */
    bool transitionInProgress(Cycle now);

    /** Stable (or transition-target) level index. */
    int currentLevel() const { return toLevel_; }

    /** Bit rate the link serializes at right now (Gb/s). */
    double currentBitRateGbps() const;

    /** Set the optical power scale (modulator scheme; VOA output). */
    void setOpticalScale(Cycle now, double scale);
    double opticalScale() const { return opticalScale_; }

    /**
     * Power-gate the whole link (on/off networks, the comparison point
     * of Soteriou & Peh cited as [26]). Turning off is immediate;
     * turning back on costs a CDR relock (T_br disabled), like any
     * frequency change. @pre off: no transition in progress.
     */
    void setOff(Cycle now, bool off);
    bool isOff() const { return phase_ == Phase::kOff; }

    // ------------------------------------------------------------------
    // Faults
    // ------------------------------------------------------------------

    /**
     * Attach the system's fault injector (null detaches); @p link_id is
     * this link's index in the injector (the network's link/trace id).
     * Attaching enables the CRC/retransmission layer and scheduled
     * fault processing on this link, and marks its ledger row pending
     * until it fails (LinkPowerLedger::setPending).
     */
    void setFault(FaultInjector *faults, int link_id);

    /**
     * True once the link has hard-failed (VCSEL death / fiber cut).
     * Cheap and lazy: the failure is discovered when the link's state
     * next advances (canAccept, hasArrival, or any stats sample), so
     * this may briefly lag the scheduled failure cycle — callers that
     * must know (routing) also see canAccept() == false from the same
     * moment they would see isFailed().
     */
    bool isFailed() const { return failed_; }

    /** True while a fault injector is attached (setFault). */
    bool faultModel() const { return faults_ != nullptr; }

    /** Flits whose corruption draw fired (CRC failures at the
     *  receiver) since construction. */
    std::uint64_t flitsCorrupted() const { return flitsCorrupted_; }

    /** Retransmissions performed by the sender since construction. */
    std::uint64_t flitRetries() const { return flitRetries_; }

    /** CDR loss-of-lock outages suffered since construction. */
    std::uint64_t lockLossEvents() const { return lockLossEvents_; }

    /** In-flight flits lost to the hard failure. */
    std::uint64_t flitsDroppedOnFail() const
    {
        return flitsDroppedOnFail_;
    }

    /** Same, but never cleared by resetStats() — the conservation
     *  audit balances whole-run flit counters, which include drops
     *  from before the measurement window. */
    std::uint64_t flitsDroppedOnFailLifetime() const
    {
        return flitsDroppedOnFailLifetime_;
    }

    /** Retransmissions since the last beginWindow() (DVS clamp
     *  input). */
    std::uint64_t windowRetries() const { return windowRetries_; }

    // ------------------------------------------------------------------
    // Statistics
    // ------------------------------------------------------------------

    /**
     * Attach an event sink (null detaches). Completed transitions are
     * reported with their request and completion cycles; because the
     * state machine advances lazily, the *emission* happens when the
     * link is next touched past the transition's end, but the recorded
     * cycle stamps are exact.
     */
    void setTrace(TraceSink *sink, int trace_id);

    /**
     * Restart cumulative statistics at @p now: the power integral (so
     * energyMj() measures from here), totalFlits(), and
     * numTransitions(). Called at measurement start so reported
     * energy/flit/transition counts exclude warm-up transients. The
     * capacity integral and the current utilization window are left
     * alone — resetting them would inject a bogus sample into the DVS
     * sliding history and perturb policy behavior at the boundary. */
    void resetStats(Cycle now);

    /** Reset the utilization window (policy epoch boundary). */
    void beginWindow(Cycle now);

    /** Capacity-normalized utilization since the last beginWindow():
     *  flits sent / flits the link could have sent. In [0, 1]. */
    double windowUtilization(Cycle now);

    /** Flits accepted since the last beginWindow(). */
    std::uint64_t windowFlits() const { return windowFlits_; }

    /** Flits accepted since construction or the last resetStats(). */
    std::uint64_t totalFlits() const;

    /** Electrical power drawn right now (mW). */
    double powerMw(Cycle now);

    /** Energy consumed since construction or the last resetStats()
     *  (mJ equivalent: mW * cycles * s/cycle, in millijoules). */
    double energyMj(Cycle now);

    /** Integral of power over time in mW-cycles since construction or
     *  the last resetStats() (exact, cheap). */
    double powerIntegralMwCycles(Cycle now);

    /** Power of a non-power-aware link (always-max baseline), mW. */
    double maxPowerMw() const { return powerModel_.maxPowerMw(); }

    /** Frequency transitions since construction or resetStats(). */
    std::uint64_t numTransitions() const { return numTransitions_; }

    const std::string &name() const { return name_; }
    LinkKind kind() const { return kind_; }
    const BitrateLevelTable &levels() const { return levels_; }
    LinkScheme scheme() const { return powerModel_.scheme(); }
    const Params &params() const { return params_; }

  private:
    bool canAcceptSlow(Cycle now);

    /** Per-flit corruption probability at the current operating point:
     *  flitErrorProb over the margin-derived BER. */
    double flitCorruptProb() const;

    /** Replay corrupted head-of-line flits whose (corrupt) arrival is
     *  due by @p now: NACK turnaround, bounded exponential backoff,
     *  reserialization. Loops until the head is clean or its arrival
     *  is in the future. */
    void reliabilityAdvance(Cycle now);

    /** Process scheduled faults (lock loss, hard failure) with cycles
     *  <= @p now at their exact times. */
    void faultAdvance(Cycle now);

    /** Permanent failure at @p at: drop in-flight flits, gate off. */
    void failLink(Cycle at);

    /** Wake a parked receiver for the end of a just-started transition
     *  phase (fault-attached links only; see the definition). */
    void armReceiverTransitionWake();

    enum class Phase
    {
        kStable,
        kVoltRampUp,  ///< voltage rising ahead of a frequency increase
        kFreqSwitch,  ///< CDR relock; link disabled
        kVoltRampDown, ///< voltage falling after a frequency decrease
        kOff           ///< power-gated (on/off policy extension)
    };

    /** Walk the transition state machine up to @p now (processing any
     *  scheduled faults first, at their exact cycles). */
    void advance(Cycle now);

    /** The pre-fault phase walk: complete phases ending by @p now. */
    void phaseAdvance(Cycle now);

    /** Enter @p phase at @p at, ending at @p end; refresh accounting. */
    void enterPhase(Phase phase, Cycle at, Cycle end);

    /** Recompute power/capacity signals at time @p at. */
    void refreshSignals(Cycle at);

    /** Set the power signal to @p mw at @p at (the ledger row). */
    void writePower(Cycle at, double mw, double vdd_frac);

    /** Recompute the ledger row's pending flag: the link's power can
     *  change with no call touching it while a transition phase is
     *  underway, or while a fault injector is attached and the link
     *  has not failed yet. */
    void syncPending();

    bool enabledNow() const
    {
        return phase_ != Phase::kFreqSwitch && phase_ != Phase::kOff;
    }

    std::string name_;
    LinkKind kind_;
    const BitrateLevelTable &levels_;
    Params params_;
    LinkPowerModel powerModel_;

    // Transition state.
    Phase phase_ = Phase::kStable;
    Cycle phaseEnd_ = 0;
    int fromLevel_ = 0;
    int toLevel_ = 0;
    double opticalScale_ = 1.0;
    std::uint64_t numTransitions_ = 0;

    // Tracing. transitionType_ doubles as the "transition underway has
    // not been reported yet" flag.
    TraceSink *traceSink_ = nullptr;
    int traceId_ = kInvalid;
    Cycle transitionStart_ = 0;
    int transitionFrom_ = 0;
    const char *transitionType_ = nullptr;

    // Receiver wake edge (idle elision) and arrival flag.
    Ticking *receiver_ = nullptr;
    Cycle receiverWakeLead_ = 0;
    std::uint64_t *arrivalFlags_ = nullptr;
    std::uint64_t arrivalBit_ = 0;

    // Faults / reliability.
    FaultInjector *faults_ = nullptr;
    int faultId_ = kInvalid;
    bool failed_ = false;
    std::uint64_t flitsCorrupted_ = 0;
    std::uint64_t flitRetries_ = 0;
    std::uint64_t lockLossEvents_ = 0;
    std::uint64_t flitsDroppedOnFail_ = 0;
    std::uint64_t flitsDroppedOnFailLifetime_ = 0;
    std::uint64_t windowRetries_ = 0;

    // Serialization / in-flight flits (ring capacity kInflightCap,
    // public above; power of two so the drain walk can mask).
    static_assert((kInflightCap & (kInflightCap - 1)) == 0);
    double nextFree_ = 0.0; ///< earliest cycle the transmitter is free
    struct InFlight
    {
        Flit flit;
        Cycle arrives;
        int attempts = 0; ///< retransmissions so far
        bool corrupt = false;
    };
    InFlight inflight_[kInflightCap];
    int inflightHead_ = 0;
    int inflightCount_ = 0;
    Cycle lastArrival_ = 0;

    // Accounting. Power, its integral and the flit counters live in
    // the ledger row.
    LinkPowerLedger &ledger_;
    int ledgerId_ = kInvalid;
    TimeWeighted capacityTw_; ///< flits/cycle the link could move
    std::uint64_t windowFlits_ = 0;
    double windowCapBase_ = 0.0;
    Cycle windowStart_ = 0;

    // Wake-settle accounting (see Params::wakeSettleCycles). While the
    // transmitter settles after a wake from kOff, the power step to the
    // target level is *pending*: it is folded into the integrals at
    // exactly wakeSettleEnd_ by the next advance()/refreshSignals(),
    // or cancelled if a newer signal (fault, re-gate) supersedes it.
    Cycle wakeSettleEnd_ = kNeverCycle;
    Cycle pendingPowerAt_ = kNeverCycle;
    double pendingPowerMw_ = 0.0;
    double pendingVddFrac_ = 0.0;
};

} // namespace oenet

#endif // OENET_LINK_LINK_HH

/**
 * @file
 * Deterministic boundary exchange for the sharded kernel.
 *
 * A proxied inter-router link is received through a two-piece proxy
 * instead of the destination router polling the link directly:
 *
 *   LinkShuttle       a Ticking in the *source* router's shard. Its
 *                     tick at cycle t pops every flit the link delivers
 *                     by t+1 and stages it into the channel — one cycle
 *                     ahead of arrival, which is exactly the phase
 *                     headroom the handoff needs (the link wakes it
 *                     with a one-cycle lead; see setReceiverWakeLead).
 *   BoundaryChannel   a phase-separated SPSC mailbox backed by
 *                     fixed-capacity ring slabs. The shuttle writes the
 *                     pending region during the parallel phase; the
 *                     driving thread publishes pending -> ready between
 *                     phases by advancing one index (no buffer copy or
 *                     allocation); the destination router drains the
 *                     ready region — at the flit's true arrival cycle —
 *                     during the next parallel phase. Credits ride a
 *                     second ring in the other direction.
 *
 * No payload atomics anywhere: the producer and consumer touch
 * disjoint index ranges in any given phase, and the kernel's phase
 * barrier supplies the happens-before edge across the publish. Each
 * side bounds its ring against its own copy of the other side's head,
 * refreshed by the publish, never against the live index the other
 * shard is advancing.
 *
 * Which links are proxied (Network's constructor decides):
 *
 *  - A link whose endpoints sit in different shards always is: the
 *    destination shard may not touch link state the source shard
 *    mutates.
 *  - With a fault model attached (Network::Params::faults) every
 *    inter-router link is, at every shard count. The receiver's poll
 *    then walks the link's reliability layer — CRC replays, RNG draws,
 *    retry counters, fault and transition trace events — and the
 *    shuttle's poll of hasArrival(now + 1) after every router has
 *    ticked is what fixes the cycles and order of that walk. A proxied
 *    link whose endpoints share a shard runs the channel in **direct
 *    mode** (setDirect): staged flits are published immediately (the
 *    destination router ticks before the shuttle within a cycle, so it
 *    cannot observe them early), credits forward synchronously (they
 *    are time-stamped, so application timing is unchanged), and the
 *    per-cycle swap/drain hooks skip the edge entirely.
 *  - Otherwise — a fault-free link inside one shard, i.e. every link
 *    of a default --shards 1 run — the link is **proxy-free**: the
 *    destination router polls it directly, as it polls an injection
 *    link. Without a fault model the poll is a pure ring walk with no
 *    side effects, so who performs it and when is unobservable; the
 *    flit still lands at its arrival cycle and the credit still applies
 *    one cycle after its return.
 *
 * The call sequence seen by the link, the routers, and the RNG streams
 * is byte-for-byte identical across all three; see DESIGN.md section
 * 11 and docs/DETERMINISM.md section 5.
 *
 * Delivery timing is unchanged from a direct receiver in either mode:
 * a flit accepted at t with arrival t+k is staged at t+k-1 and drained
 * at t+k; a credit returned at t applies at t+1.
 */

#ifndef OENET_NETWORK_BOUNDARY_HH
#define OENET_NETWORK_BOUNDARY_HH

#include <cstdint>

#include "common/log.hh"
#include "common/types.hh"
#include "link/endpoints.hh"
#include "link/link.hh"
#include "router/flit.hh"
#include "sim/kernel.hh"

namespace oenet {

/**
 * Phase-separated SPSC mailbox between one inter-router link's shuttle
 * (producer, source shard) and its destination router (consumer,
 * destination shard). Also carries the reverse credit stream, with the
 * roles swapped. All methods are phase-bound — see each one's comment
 * for which thread may call it when; none of them synchronize.
 *
 * Storage is two fixed ring slabs addressed by monotonically
 * increasing indices masked on access: head <= readyEnd <= pendEnd.
 * Staging writes slab[pendEnd++ & mask]; publishing is readyEnd =
 * pendEnd; draining reads slab[head++ & mask]. Capacities are hard
 * bounds from the protocol (the link's in-flight ring caps arrivals
 * per cycle; switch allocation returns at most one credit per input
 * port per cycle), so overflow is a bug and panics. In cross-shard
 * mode the overflow checks use the head as of the last publish, which
 * never runs ahead of the live head, so they are at least as strict.
 */
class BoundaryChannel final : public CreditSink
{
  public:
    /** @param upstream the source router (credit sink) and
     *  @param src_port its output port feeding the link. */
    BoundaryChannel(OpticalLink *link, CreditSink *upstream, int src_port)
        : link_(link), upstream_(upstream), srcPort_(src_port)
    {
    }

    /**
     * Switch to direct (same-shard) mode: stageArrival/stageFailure
     * publish immediately and returnCredit forwards synchronously, so
     * the channel needs no per-cycle swap or drain. Only legal when
     * producer and consumer run on the same thread (the shuttle ticks
     * after the destination router, the upstream router's credit
     * application is stamped) — Network's constructor sets it for
     * every proxied edge whose endpoints share a shard. Configuration-
     * time only, before the first cycle.
     */
    void setDirect() { direct_ = true; }
    bool direct() const { return direct_; }

    // --- producer side: source shard's thread, parallel phase ---

    /** Stage a flit for delivery at the start of the next cycle
     *  (published immediately in direct mode). */
    void stageArrival(const Flit &flit)
    {
        std::uint32_t head = direct_ ? head_ : publishedHead_;
        if (pendEnd_ - head >= kArrivalCap)
            panic("BoundaryChannel %s: arrival ring overflow",
                  link_->name().c_str());
        arrivals_[pendEnd_++ & kArrivalMask] = flit;
        if (direct_)
            readyEnd_ = pendEnd_;
        else
            arrivalsDirty_ = true;
    }

    /** Stage the link's hard failure (staged once, by the shuttle). */
    void stageFailure()
    {
        if (direct_) {
            // The only reader (the destination router) ticked before
            // the shuttle this cycle, so it first observes the flag
            // next cycle — the same cycle the swap would publish it.
            failed_ = true;
        } else {
            pendingFailed_ = true;
            arrivalsDirty_ = true;
        }
    }

    // --- consumer side: destination shard's thread, parallel phase ---

    bool hasReadyArrival() const { return head_ != readyEnd_; }

    /** Pop the oldest ready flit. @pre hasReadyArrival(). */
    const Flit &popReadyArrival() { return arrivals_[head_++ & kArrivalMask]; }

    /** True once the link's hard failure has propagated (from the
     *  exact cycle a direct receiver would observe it). */
    bool failed() const { return failed_; }

    /** CreditSink: the destination router frees a buffer slot at
     *  @p now; the credit reaches the source router next cycle's
     *  pre-pass (synchronously in direct mode — either way it is
     *  stamped @p now and applies at now+1, as with a direct call). */
    void returnCredit(int port, int vc, Cycle now) override
    {
        (void)port;
        if (direct_) {
            upstream_->returnCredit(srcPort_, vc, now);
            return;
        }
        if (credPendEnd_ - publishedCredHead_ >= kCreditCap)
            panic("BoundaryChannel %s: credit ring overflow",
                  link_->name().c_str());
        credits_[credPendEnd_++ & kCreditMask] = StagedCredit{vc, now};
        creditsDirty_ = true;
    }

    // --- source shard's thread, pre-pass (cross-shard mode only) ---

    /** Forward every ready credit to the source router, stamped with
     *  its original return cycle (so it applies at that cycle + 1). */
    void drainCredits()
    {
        while (credHead_ != credReadyEnd_) {
            const StagedCredit &c = credits_[credHead_++ & kCreditMask];
            upstream_->returnCredit(srcPort_, c.vc, c.at);
        }
    }

    // --- destination shard's thread, pre-pass (cross-shard mode only) ---

    /** True if the ready side carries anything the destination router
     *  must tick for (flits, or a just-propagated failure); clears the
     *  failure edge. The caller wakes the router at the current
     *  cycle. */
    bool takeDeliveryEdge()
    {
        bool any = hasReadyArrival() || failEdge_;
        failEdge_ = false;
        return any;
    }

    // --- driving thread, between phases (cross-shard mode only) ---

    /** True if the shuttle staged flits or a failure this cycle. */
    bool arrivalsDirty() const { return arrivalsDirty_; }

    /** True if the destination router staged credits this cycle. */
    bool creditsDirty() const { return creditsDirty_; }

    /** True if either side staged something this cycle. */
    bool dirty() const { return arrivalsDirty_ || creditsDirty_; }

    /** Publish the pending region: staged flits/credits/failure become
     *  ready for the next cycle's consumers. An index flip, no copy;
     *  also hands each producer the consumer's current head for its
     *  overflow check. @pre the previous ready region was fully
     *  drained (the pre-pass wake guarantees it). */
    void swapBuffers();

    // --- any thread between steps (driving thread) ---

    /** Flits staged in the mailbox (in neither the link nor a router
     *  buffer); counted by Network::flitsInSystem. */
    int staged() const { return static_cast<int>(pendEnd_ - head_); }

    OpticalLink *link() const { return link_; }

  private:
    struct StagedCredit
    {
        int vc;
        Cycle at; ///< cycle the destination router returned it
    };

    // Ring capacities. Arrivals: the shuttle stages at most one link
    // ring's worth (kInflightCap) per tick and the ready region is
    // drained before the next publish, so 2 * kInflightCap bounds the
    // live range. Credits: switch allocation returns at most one
    // credit per input port per cycle, so pending + ready <= 2.
    static constexpr std::uint32_t kArrivalCap = 32;
    static constexpr std::uint32_t kArrivalMask = kArrivalCap - 1;
    static constexpr std::uint32_t kCreditCap = 8;
    static constexpr std::uint32_t kCreditMask = kCreditCap - 1;
    static_assert((kArrivalCap & kArrivalMask) == 0);
    static_assert(static_cast<int>(kArrivalCap) >=
                  2 * OpticalLink::kInflightCap);
    static_assert((kCreditCap & kCreditMask) == 0);

    OpticalLink *link_;
    CreditSink *upstream_;
    int srcPort_;
    bool direct_ = false;

    // Flit direction (written by producer, drained by consumer).
    // Monotonic indices, masked on access: head_ <= readyEnd_ <= pendEnd_.
    Flit arrivals_[kArrivalCap];
    std::uint32_t head_ = 0;
    std::uint32_t readyEnd_ = 0;
    std::uint32_t pendEnd_ = 0;
    std::uint32_t publishedHead_ = 0; ///< producer's copy of head_
    bool arrivalsDirty_ = false;
    bool pendingFailed_ = false;

    // Credit direction (written by consumer, drained by producer).
    StagedCredit credits_[kCreditCap];
    std::uint32_t credHead_ = 0;
    std::uint32_t credReadyEnd_ = 0;
    std::uint32_t credPendEnd_ = 0;
    std::uint32_t publishedCredHead_ = 0; ///< dst router's copy of credHead_
    bool creditsDirty_ = false;

    // Failure propagation (published by swapBuffers; direct mode sets
    // failed_ immediately — see stageFailure).
    bool failed_ = false;
    bool failEdge_ = false;
};

/**
 * The inter-router link's registered receiver: runs in the source
 * router's shard and ferries deliveries into the BoundaryChannel one
 * cycle before their arrival stamp. Polling arrivals due by now + 1
 * makes the shuttle a faithful image of a direct every-cycle receiver
 * shifted one cycle early, so the link's lazy fault/replay walk — and
 * every RNG draw and trace emission it performs — happens at the same
 * simulated cycles as it would for a direct receiver. Identical in
 * both channel modes; in direct mode the shuttle additionally issues
 * the destination router's delivery wake itself (a same-domain wake at
 * now + 1, the cycle the cross-shard pre-pass would have issued it).
 */
class LinkShuttle final : public Ticking
{
  public:
    LinkShuttle(OpticalLink *link, BoundaryChannel *channel)
        : link_(link), channel_(channel)
    {
    }

    /** Direct-mode wake target (the destination router); set together
     *  with BoundaryChannel::setDirect. Configuration-time only. */
    void setDirectDst(Ticking *dst) { directDst_ = dst; }

    void tick(Cycle now) override
    {
        int staged = link_->drainArrivalsDue(
            now + 1, [this](const Flit &f) { channel_->stageArrival(f); });
        bool edge = staged > 0;
        if (link_->isFailed() && !failStaged_) {
            failStaged_ = true;
            channel_->stageFailure();
            edge = true;
        }
        if (edge && directDst_ != nullptr)
            directDst_->wakeAt(now + 1);
    }

    Cycle nextWakeCycle(Cycle now) override
    {
        Cycle event = link_->nextReceiverEventCycle();
        if (event == kNeverCycle)
            return kNeverCycle;
        // One cycle ahead of the event, matching the link's wake lead;
        // everything due by now+1 was just drained, so this is always
        // in the future.
        return event > now + 1 ? event - 1 : now + 1;
    }

  private:
    OpticalLink *link_;
    BoundaryChannel *channel_;
    Ticking *directDst_ = nullptr;
    bool failStaged_ = false;
};

} // namespace oenet

#endif // OENET_NETWORK_BOUNDARY_HH

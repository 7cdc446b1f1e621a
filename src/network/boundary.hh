/**
 * @file
 * Deterministic boundary exchange for the sharded kernel.
 *
 * A channeled inter-router link is read by its destination router
 * through a BoundaryChannel instead of by polling the link directly:
 *
 *   source router     the link's registered receiver. As the last step
 *                     of its tick at cycle t it runs the link's
 *                     receiver walk, popping every flit the link
 *                     delivers by t+1, and stages each one into the
 *                     channel: one cycle ahead of arrival, which is
 *                     the phase headroom the handoff needs (the link
 *                     wakes the router with a one-cycle lead; see
 *                     Router::connectOutputBoundary).
 *   BoundaryChannel   a phase-separated SPSC mailbox backed by
 *                     fixed-capacity ring slabs. The walk writes the
 *                     pending region during the parallel phase; the
 *                     driving thread publishes pending -> ready between
 *                     phases by advancing one index (no buffer copy or
 *                     allocation) and wakes the destination router for
 *                     the next cycle, in which it drains the ready
 *                     region at the flits' true arrival cycle. Credits
 *                     ride a second ring in the other direction and are
 *                     forwarded by the same publish.
 *
 * No payload atomics anywhere: producer and consumer touch disjoint
 * index ranges in any given phase, and the kernel's phase barrier
 * supplies the happens-before edge across the publish. The producer
 * bounds the arrival ring against its copy of the consumer's head,
 * refreshed by the publish, never against the live index the other
 * shard is advancing. Each side appends the channel to its own shard's
 * publish list the first time it stages in a cycle, so the publish
 * visits only channels that carry something.
 *
 * Which links are channeled (Network's constructor decides):
 *
 *  - A link whose endpoints sit in different shards always is: the
 *    destination shard may not touch link state the source shard
 *    mutates.
 *  - With a fault model attached (Network::Params::faults) every
 *    inter-router link is, at every shard count. The receiver walk then
 *    runs the link's reliability layer (CRC replays, RNG draws, retry
 *    counters, fault and transition trace events), and running it at
 *    the end of the source router's tick, after that cycle's last
 *    sender touch, fixes the cycles and per-link order of that walk.
 *  - Otherwise (a fault-free link inside one shard, i.e. every link of
 *    a default --shards 1 run) the link is **proxy-free**: the
 *    destination router polls it directly, as it polls an injection
 *    link. Without a fault model the poll is a pure ring walk with no
 *    side effects, so who performs it and when is unobservable; the
 *    flit still lands at its arrival cycle and the credit still applies
 *    one cycle after its return.
 *
 * Every channel, same-shard or cross-shard, publishes in the same one
 * step, so the call sequence seen by the link, the routers, and the
 * RNG streams is identical at every shard count; see DESIGN.md section
 * 11 and docs/DETERMINISM.md section 5.
 *
 * Delivery timing is unchanged from a direct receiver: a flit accepted
 * at t with arrival t+k is staged at t+k-1 and drained at t+k; a
 * credit returned at t applies at t+1; a hard failure discovered by
 * the walk at t is observed by the destination from t+1.
 */

#ifndef OENET_NETWORK_BOUNDARY_HH
#define OENET_NETWORK_BOUNDARY_HH

#include <cstdint>
#include <vector>

#include "common/log.hh"
#include "common/types.hh"
#include "link/endpoints.hh"
#include "link/link.hh"
#include "router/flit.hh"
#include "sim/kernel.hh"

namespace oenet {

/**
 * Phase-separated SPSC mailbox between one channeled inter-router
 * link's receiver walk (producer: the source router, in its shard) and
 * the destination router (consumer, in its shard). Also carries the
 * reverse credit stream, with the roles swapped. All methods are
 * phase-bound (see each one's comment for which thread may call it
 * when); none of them synchronize.
 *
 * Storage is two fixed ring slabs addressed by monotonically
 * increasing indices masked on access. Arrivals keep head <= readyEnd
 * <= pendEnd: staging writes slab[pendEnd++ & mask]; publishing is
 * readyEnd = pendEnd; draining reads slab[head++ & mask]. Credits are
 * staged the same way and forwarded in full by the publish.
 * Capacities are hard bounds from the protocol (the link's in-flight
 * ring caps arrivals per cycle; switch allocation returns at most one
 * credit per input port per cycle), so overflow is a bug and panics.
 * The arrival check uses the head as of the last publish, which never
 * runs ahead of the live head, so it is at least as strict.
 */
class BoundaryChannel final : public CreditSink
{
  public:
    /** A shard's publish list: the channels its thread staged into
     *  this cycle, each listed at most once per side. */
    using PublishList = std::vector<BoundaryChannel *>;

    /**
     * @param upstream the source router (credit sink) and
     * @param src_port its output port feeding the link;
     * @param dst the destination router, woken for each delivery;
     * @param src_list / @p dst_list the publish lists of the source
     *        and destination routers' shards.
     */
    BoundaryChannel(OpticalLink *link, CreditSink *upstream, int src_port,
                    Ticking *dst, PublishList *src_list,
                    PublishList *dst_list)
        : link_(link), upstream_(upstream), dst_(dst), srcList_(src_list),
          dstList_(dst_list), srcPort_(src_port)
    {
    }

    // --- producer side: source shard's thread, parallel phase ---

    /** Stage a flit for delivery at the start of the next cycle. */
    void stageArrival(const Flit &flit)
    {
        if (pendEnd_ - publishedHead_ >= kArrivalCap)
            panic("BoundaryChannel %s: arrival ring overflow",
                  link_->name().c_str());
        arrivals_[pendEnd_++ & kArrivalMask] = flit;
        listArrivals();
    }

    /** Stage the link's hard failure; every call after the first is a
     *  no-op, so the walk may report a dead link on every tick. */
    void stageFailure()
    {
        if (failStaged_)
            return;
        failStaged_ = true;
        listArrivals();
    }

    // --- consumer side: destination shard's thread, parallel phase ---

    bool hasReadyArrival() const { return head_ != readyEnd_; }

    /** Pop the oldest ready flit. @pre hasReadyArrival(). */
    const Flit &popReadyArrival() { return arrivals_[head_++ & kArrivalMask]; }

    /** True once the link's hard failure has been published (from the
     *  cycle after the walk discovered it, as for a direct receiver). */
    bool failed() const { return failed_; }

    /** CreditSink: the destination router frees a buffer slot at
     *  @p now; the publish forwards the credit to the source router
     *  stamped @p now, so it applies at now+1 as with a direct call. */
    void returnCredit(int port, int vc, Cycle now) override
    {
        (void)port;
        if (credPendEnd_ - credHead_ >= kCreditCap)
            panic("BoundaryChannel %s: credit ring overflow",
                  link_->name().c_str());
        credits_[credPendEnd_++ & kCreditMask] = StagedCredit{vc, now};
        if (!creditsListed_) {
            creditsListed_ = true;
            dstList_->push_back(this);
        }
    }

    // --- driving thread, between phases ---

    /**
     * Publish what either side staged at @p now: staged flits and a
     * staged failure become visible and the destination router is
     * woken for now+1; staged credits go to the source router with
     * their original stamps. An index flip, no copy; also hands the
     * producer the consumer's current head for its overflow check.
     * A no-op for a side that staged nothing, so a channel listed by
     * both sides may be published twice. @pre the previous ready
     * region was fully drained (the publish's wake guarantees it).
     */
    void publish(Cycle now);

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

    /** Producer: list the channel for this cycle's publish. */
    void listArrivals()
    {
        if (!arrivalsListed_) {
            arrivalsListed_ = true;
            srcList_->push_back(this);
        }
    }

    // Ring capacities. Arrivals: the walk stages at most one link
    // ring's worth (kInflightCap) per tick and the ready region is
    // drained before the next publish, so 2 * kInflightCap bounds the
    // live range. Credits: switch allocation returns at most one
    // credit per input port per cycle and the publish forwards them
    // all, so one slot would do.
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
    Ticking *dst_;
    PublishList *srcList_;
    PublishList *dstList_;
    int srcPort_;

    // Indices and flags ahead of the slabs. Flits: monotonic,
    // masked on access, head_ <= readyEnd_ <= pendEnd_.
    std::uint32_t head_ = 0;
    std::uint32_t readyEnd_ = 0;
    std::uint32_t pendEnd_ = 0;
    std::uint32_t publishedHead_ = 0; ///< producer's copy of head_
    std::uint32_t credHead_ = 0;
    std::uint32_t credPendEnd_ = 0;
    bool arrivalsListed_ = false; ///< producer staged this cycle
    bool creditsListed_ = false;  ///< consumer staged this cycle
    bool failStaged_ = false;     ///< producer side of the failure
    bool failed_ = false;         ///< published failure (consumer side)

    Flit arrivals_[kArrivalCap];
    StagedCredit credits_[kCreditCap];
};

} // namespace oenet

#endif // OENET_NETWORK_BOUNDARY_HH

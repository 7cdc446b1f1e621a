/**
 * @file
 * BoundaryChannel unit tests: the phase-separated SPSC mailbox that
 * carries flits, credits, and failure markers from a channeled link's
 * receiver walk (in the source router) to its destination router.
 * Everything here runs single-threaded — the channel has no internal
 * synchronization to test (the kernel's phase barrier provides it);
 * what matters is the phase discipline: nothing staged is visible
 * before the publish, everything staged is visible, in order, after
 * it, and each publish of flits or a failure wakes the destination
 * for the next cycle.
 */

#include <gtest/gtest.h>

#include <vector>

#include "network/boundary.hh"
#include "phy/power_ledger.hh"

using namespace oenet;

namespace {

struct RecordingCreditSink final : public CreditSink
{
    struct Credit
    {
        int port;
        int vc;
        Cycle at;
    };
    std::vector<Credit> credits;

    void returnCredit(int port, int vc, Cycle now) override
    {
        credits.push_back(Credit{port, vc, now});
    }
};

/** Destination-router stand-in: parks until woken, records its ticks. */
struct ParkedDst final : public Ticking
{
    std::vector<Cycle> ticks;

    void tick(Cycle now) override { ticks.push_back(now); }
    Cycle nextWakeCycle(Cycle) override { return kNeverCycle; }
};

/** A channel wired to a parked destination in a one-domain kernel,
 *  with separate source and destination publish lists. */
struct Harness
{
    Kernel kernel;
    ParkedDst dst;
    RecordingCreditSink upstream;
    BoundaryChannel::PublishList srcList;
    BoundaryChannel::PublishList dstList;
    BoundaryChannel chan;

    explicit Harness(int src_port, OpticalLink *link = nullptr)
        : chan(link, &upstream, src_port, &dst, &srcList, &dstList)
    {
        kernel.addTicking(&dst);
        kernel.step(); // the first tick parks the destination
        dst.ticks.clear();
    }

    /** The post-pass of the cycle just stepped: publish both lists. */
    Cycle publish()
    {
        Cycle now = kernel.now() - 1;
        for (auto *list : {&srcList, &dstList}) {
            for (BoundaryChannel *c : *list)
                c->publish(now);
            list->clear();
        }
        return now;
    }
};

Flit
makeFlit(PacketId id, std::uint16_t seq)
{
    Flit f;
    f.packet = id;
    f.seq = seq;
    return f;
}

} // namespace

TEST(BoundaryChannel, StagedArrivalsInvisibleUntilSwap)
{
    // The publish's index flip (the "swap" of this test's name) is the
    // only way a staged flit becomes visible.
    Harness h(3);

    h.chan.stageArrival(makeFlit(7, 0));
    h.chan.stageArrival(makeFlit(7, 1));
    EXPECT_FALSE(h.chan.hasReadyArrival());
    EXPECT_EQ(h.chan.staged(), 2);

    h.publish();
    EXPECT_EQ(h.chan.staged(), 2); // now on the ready side
    ASSERT_TRUE(h.chan.hasReadyArrival());
    EXPECT_EQ(h.chan.popReadyArrival().seq, 0); // FIFO
    ASSERT_TRUE(h.chan.hasReadyArrival());
    EXPECT_EQ(h.chan.popReadyArrival().seq, 1);
    EXPECT_FALSE(h.chan.hasReadyArrival());
    EXPECT_EQ(h.chan.staged(), 0);
}

TEST(BoundaryChannel, ArrivalsStagedDuringDrainWaitOneMorePhase)
{
    Harness h(0);

    h.chan.stageArrival(makeFlit(1, 0));
    h.publish();
    // The walk stages the next cycle's flit while the consumer still
    // holds the previous ready region.
    h.chan.stageArrival(makeFlit(2, 0));
    ASSERT_TRUE(h.chan.hasReadyArrival());
    EXPECT_EQ(h.chan.popReadyArrival().packet, 1u);
    EXPECT_FALSE(h.chan.hasReadyArrival()); // packet 2 not published yet
    EXPECT_EQ(h.chan.staged(), 1);

    h.publish();
    ASSERT_TRUE(h.chan.hasReadyArrival());
    EXPECT_EQ(h.chan.popReadyArrival().packet, 2u);
}

TEST(BoundaryChannel, EachSideListsItselfOncePerCycle)
{
    // The walk lists the channel on the source shard's publish list
    // and a credit return on the destination shard's, each the first
    // time it stages in a cycle, so the publish visits only channels
    // that carry something, once per side.
    Harness h(0);
    h.chan.stageArrival(makeFlit(1, 0));
    h.chan.stageArrival(makeFlit(1, 1));
    h.chan.stageFailure();
    h.chan.returnCredit(0, 0, 0);
    h.chan.returnCredit(0, 1, 0);
    EXPECT_EQ(h.srcList.size(), 1u);
    EXPECT_EQ(h.dstList.size(), 1u);

    h.publish();
    EXPECT_TRUE(h.srcList.empty());
    EXPECT_TRUE(h.dstList.empty());
    h.chan.popReadyArrival();
    h.chan.popReadyArrival();
    h.chan.returnCredit(0, 0, 1);
    EXPECT_TRUE(h.srcList.empty());
    EXPECT_EQ(h.dstList.size(), 1u); // listed again in a new cycle
}

TEST(BoundaryChannel, CreditsForwardWithOriginalStampAndSourcePort)
{
    Harness h(5);

    h.chan.returnCredit(/*port=*/2, /*vc=*/1, /*now=*/40);
    h.chan.returnCredit(2, 0, 41);
    EXPECT_TRUE(h.upstream.credits.empty()); // nothing until the publish

    h.publish();
    ASSERT_EQ(h.upstream.credits.size(), 2u);
    // The destination port the credit came in on is irrelevant; the
    // source router hears its own output port number, and the stamp
    // is the return cycle, so the credit applies one cycle later.
    EXPECT_EQ(h.upstream.credits[0].port, 5);
    EXPECT_EQ(h.upstream.credits[0].vc, 1);
    EXPECT_EQ(h.upstream.credits[0].at, 40u);
    EXPECT_EQ(h.upstream.credits[1].vc, 0);
    EXPECT_EQ(h.upstream.credits[1].at, 41u);
    // Credits wake the source router (through returnCredit), never
    // the destination.
    h.kernel.step();
    EXPECT_TRUE(h.dst.ticks.empty());

    h.chan.publish(h.kernel.now()); // a repeat publish forwards nothing
    EXPECT_EQ(h.upstream.credits.size(), 2u);
}

TEST(BoundaryChannel, FailurePublishesOnceWithSingleDeliveryEdge)
{
    Harness h(0);

    EXPECT_FALSE(h.chan.failed());
    h.chan.stageFailure();
    h.chan.stageFailure(); // the walk reports a dead link every tick
    EXPECT_FALSE(h.chan.failed()); // not before the publish
    EXPECT_EQ(h.srcList.size(), 1u);

    Cycle t = h.publish();
    EXPECT_TRUE(h.chan.failed());
    h.chan.stageFailure(); // already staged: lists nothing
    EXPECT_TRUE(h.srcList.empty());
    h.kernel.run(3);
    // One wake edge, for the cycle after the walk discovered it...
    EXPECT_EQ(h.dst.ticks, (std::vector<Cycle>{t + 1}));
    EXPECT_TRUE(h.chan.failed()); // ...and the level persists
}

TEST(BoundaryChannel, DeliveryEdgeFollowsReadyFlits)
{
    Harness h(0);

    h.publish(); // nothing staged: no wake
    h.kernel.step();
    EXPECT_TRUE(h.dst.ticks.empty());

    h.chan.stageArrival(makeFlit(9, 0));
    Cycle t = h.publish();
    h.kernel.step();
    // The destination ticks at the flit's arrival cycle, t + 1.
    EXPECT_EQ(h.dst.ticks, (std::vector<Cycle>{t + 1}));
    ASSERT_TRUE(h.chan.hasReadyArrival());
    h.chan.popReadyArrival();
    h.publish(); // drained, nothing new: no further wake
    h.kernel.run(2);
    EXPECT_EQ(h.dst.ticks.size(), 1u);
}

TEST(BoundaryChannel, RingsWrapAcrossManyCycles)
{
    // The slabs are fixed rings addressed by monotonically increasing
    // masked indices; push enough traffic through to wrap both rings
    // several times and confirm FIFO order and credit stamps survive.
    Harness h(1);

    std::uint16_t seq = 0;
    for (Cycle t = 0; t < 100; t++) {
        h.chan.stageArrival(makeFlit(1, seq));
        h.chan.stageArrival(
            makeFlit(1, static_cast<std::uint16_t>(seq + 1)));
        h.chan.returnCredit(0, static_cast<int>(t % 2), t);
        h.publish();
        h.kernel.step();
        ASSERT_TRUE(h.chan.hasReadyArrival());
        EXPECT_EQ(h.chan.popReadyArrival().seq, seq);
        EXPECT_EQ(h.chan.popReadyArrival().seq, seq + 1);
        EXPECT_FALSE(h.chan.hasReadyArrival());
        ASSERT_EQ(h.upstream.credits.size(),
                  static_cast<std::size_t>(t + 1));
        EXPECT_EQ(h.upstream.credits.back().at, t);
        EXPECT_EQ(h.upstream.credits.back().vc, static_cast<int>(t % 2));
        seq = static_cast<std::uint16_t>(seq + 2);
    }
}

TEST(BoundaryChannelDeath, ArrivalRingOverflowPanics)
{
    BitrateLevelTable levels = BitrateLevelTable::linear(5.0, 10.0, 6);
    LinkPowerLedger ledger(1);
    OpticalLink link("bnd", LinkKind::kInterRouter, levels,
                     OpticalLink::Params{}, ledger);
    Harness h(0, &link);

    // Staging past the ring capacity without a publish must trip the
    // capacity panic, not silently wrap over undelivered flits.
    auto flood = [&] {
        for (int i = 0; i < 64; i++)
            h.chan.stageArrival(
                makeFlit(1, static_cast<std::uint16_t>(i)));
    };
    EXPECT_DEATH(flood(), "arrival ring overflow");
}

TEST(BoundaryChannelDeath, OverflowBoundsAgainstPublishedHeads)
{
    // The walk checks the arrival ring against the consumer's head as
    // of the last publish — the live head belongs to another shard's
    // thread. A consumer that drained since then frees no room until
    // the next publish.
    BitrateLevelTable levels = BitrateLevelTable::linear(5.0, 10.0, 6);
    LinkPowerLedger ledger(1);
    OpticalLink link("bnd", LinkKind::kInterRouter, levels,
                     OpticalLink::Params{}, ledger);
    Harness h(0, &link);

    for (int i = 0; i < 16; i++)
        h.chan.stageArrival(makeFlit(1, static_cast<std::uint16_t>(i)));
    h.publish();
    while (h.chan.hasReadyArrival())
        h.chan.popReadyArrival();
    for (int i = 16; i < 32; i++) // published 16 + pending 16: fits
        h.chan.stageArrival(makeFlit(1, static_cast<std::uint16_t>(i)));
    EXPECT_DEATH(h.chan.stageArrival(makeFlit(1, 32)),
                 "arrival ring overflow");
}

TEST(BoundaryChannelDeath, CreditRingOverflowPanics)
{
    // Switch allocation returns at most one credit per input port per
    // cycle and every publish forwards them all, so more credits in
    // one cycle than the ring holds is a protocol bug.
    BitrateLevelTable levels = BitrateLevelTable::linear(5.0, 10.0, 6);
    LinkPowerLedger ledger(1);
    OpticalLink link("bnd", LinkKind::kInterRouter, levels,
                     OpticalLink::Params{}, ledger);
    Harness h(0, &link);

    for (int i = 0; i < 8; i++)
        h.chan.returnCredit(0, 0, 1);
    h.publish(); // forwarded: the ring is empty again
    for (int i = 0; i < 8; i++)
        h.chan.returnCredit(0, 0, 2);
    EXPECT_DEATH(h.chan.returnCredit(0, 0, 2), "credit ring overflow");
}

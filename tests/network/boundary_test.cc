/**
 * @file
 * BoundaryChannel unit tests: the double-buffered SPSC mailbox that
 * carries flits, credits, and failure markers across a shard boundary.
 * Everything here runs single-threaded — the channel has no internal
 * synchronization to test (the kernel's phase barrier provides it);
 * what matters is the phase discipline: nothing staged is visible
 * before swapBuffers(), and everything staged is visible, in order,
 * after it.
 */

#include <gtest/gtest.h>

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
    RecordingCreditSink upstream;
    BoundaryChannel chan(nullptr, &upstream, 3);

    chan.stageArrival(makeFlit(7, 0));
    chan.stageArrival(makeFlit(7, 1));
    EXPECT_FALSE(chan.hasReadyArrival());
    EXPECT_TRUE(chan.arrivalsDirty());
    EXPECT_TRUE(chan.dirty());
    EXPECT_EQ(chan.staged(), 2);

    chan.swapBuffers();
    EXPECT_FALSE(chan.dirty());
    EXPECT_EQ(chan.staged(), 2); // now on the ready side
    ASSERT_TRUE(chan.hasReadyArrival());
    EXPECT_EQ(chan.popReadyArrival().seq, 0); // FIFO
    ASSERT_TRUE(chan.hasReadyArrival());
    EXPECT_EQ(chan.popReadyArrival().seq, 1);
    EXPECT_FALSE(chan.hasReadyArrival());
    EXPECT_EQ(chan.staged(), 0);
}

TEST(BoundaryChannel, ArrivalsStagedDuringDrainWaitOneMorePhase)
{
    RecordingCreditSink upstream;
    BoundaryChannel chan(nullptr, &upstream, 0);

    chan.stageArrival(makeFlit(1, 0));
    chan.swapBuffers();
    // Producer stages the next cycle's flit while the consumer still
    // holds the previous ready buffer.
    chan.stageArrival(makeFlit(2, 0));
    ASSERT_TRUE(chan.hasReadyArrival());
    EXPECT_EQ(chan.popReadyArrival().packet, 1u);
    EXPECT_FALSE(chan.hasReadyArrival()); // packet 2 not published yet
    EXPECT_EQ(chan.staged(), 1);

    chan.swapBuffers();
    ASSERT_TRUE(chan.hasReadyArrival());
    EXPECT_EQ(chan.popReadyArrival().packet, 2u);
}

TEST(BoundaryChannel, CreditsForwardWithOriginalStampAndSourcePort)
{
    RecordingCreditSink upstream;
    BoundaryChannel chan(nullptr, &upstream, 5);

    chan.returnCredit(/*port=*/2, /*vc=*/1, /*now=*/40);
    chan.returnCredit(2, 0, 41);
    EXPECT_TRUE(chan.creditsDirty());
    EXPECT_FALSE(chan.arrivalsDirty());
    EXPECT_TRUE(upstream.credits.empty()); // nothing until swap + drain

    chan.swapBuffers();
    EXPECT_TRUE(upstream.credits.empty()); // drain is explicit
    chan.drainCredits();
    ASSERT_EQ(upstream.credits.size(), 2u);
    // The destination port the credit came in on is irrelevant; the
    // source router hears its own output port number.
    EXPECT_EQ(upstream.credits[0].port, 5);
    EXPECT_EQ(upstream.credits[0].vc, 1);
    EXPECT_EQ(upstream.credits[0].at, 40u);
    EXPECT_EQ(upstream.credits[1].vc, 0);
    EXPECT_EQ(upstream.credits[1].at, 41u);

    chan.drainCredits(); // idempotent once drained
    EXPECT_EQ(upstream.credits.size(), 2u);
}

TEST(BoundaryChannel, FailurePublishesOnceWithSingleDeliveryEdge)
{
    RecordingCreditSink upstream;
    BoundaryChannel chan(nullptr, &upstream, 0);

    EXPECT_FALSE(chan.failed());
    chan.stageFailure();
    EXPECT_FALSE(chan.failed()); // not before the swap
    EXPECT_TRUE(chan.arrivalsDirty());

    chan.swapBuffers();
    EXPECT_TRUE(chan.failed());
    EXPECT_TRUE(chan.takeDeliveryEdge());  // one wake edge...
    EXPECT_FALSE(chan.takeDeliveryEdge()); // ...consumed
    EXPECT_TRUE(chan.failed());            // the level persists
}

TEST(BoundaryChannel, DeliveryEdgeFollowsReadyFlits)
{
    RecordingCreditSink upstream;
    BoundaryChannel chan(nullptr, &upstream, 0);

    EXPECT_FALSE(chan.takeDeliveryEdge());
    chan.stageArrival(makeFlit(9, 0));
    EXPECT_FALSE(chan.takeDeliveryEdge()); // still pending
    chan.swapBuffers();
    EXPECT_TRUE(chan.takeDeliveryEdge());
    chan.popReadyArrival();
    EXPECT_FALSE(chan.takeDeliveryEdge());
}

TEST(BoundaryChannel, RingsWrapAcrossManyCycles)
{
    // The slabs are fixed rings addressed by monotonically increasing
    // masked indices; push enough traffic through to wrap both rings
    // several times and confirm FIFO order and credit stamps survive.
    RecordingCreditSink upstream;
    BoundaryChannel chan(nullptr, &upstream, 1);

    std::uint16_t seq = 0;
    for (Cycle t = 0; t < 100; t++) {
        chan.stageArrival(makeFlit(1, seq));
        chan.stageArrival(makeFlit(1, static_cast<std::uint16_t>(seq + 1)));
        chan.returnCredit(0, static_cast<int>(t % 2), t);
        chan.swapBuffers();
        ASSERT_TRUE(chan.hasReadyArrival());
        EXPECT_EQ(chan.popReadyArrival().seq, seq);
        EXPECT_EQ(chan.popReadyArrival().seq, seq + 1);
        EXPECT_FALSE(chan.hasReadyArrival());
        chan.drainCredits();
        ASSERT_EQ(upstream.credits.size(), static_cast<std::size_t>(t + 1));
        EXPECT_EQ(upstream.credits.back().at, t);
        EXPECT_EQ(upstream.credits.back().vc, static_cast<int>(t % 2));
        seq = static_cast<std::uint16_t>(seq + 2);
    }
}

TEST(BoundaryChannelDirect, ArrivalsPublishImmediately)
{
    RecordingCreditSink upstream;
    BoundaryChannel chan(nullptr, &upstream, 0);
    chan.setDirect();

    chan.stageArrival(makeFlit(3, 0));
    chan.stageArrival(makeFlit(3, 1));
    // No swap: the flits are ready the moment they are staged (the
    // destination router ticked before the shuttle this cycle, so it
    // cannot observe them early), and the channel never reports dirty
    // (the per-cycle swap pass skips direct edges entirely).
    EXPECT_FALSE(chan.dirty());
    EXPECT_EQ(chan.staged(), 2);
    ASSERT_TRUE(chan.hasReadyArrival());
    EXPECT_EQ(chan.popReadyArrival().seq, 0);
    EXPECT_EQ(chan.popReadyArrival().seq, 1);
    EXPECT_FALSE(chan.hasReadyArrival());
}

TEST(BoundaryChannelDirect, CreditsForwardSynchronously)
{
    RecordingCreditSink upstream;
    BoundaryChannel chan(nullptr, &upstream, 5);
    chan.setDirect();

    chan.returnCredit(/*port=*/2, /*vc=*/1, /*now=*/40);
    // The upstream router hears the credit at the call site, on its
    // own output port, with the original stamp — identical arguments
    // to what drainCredits would forward one phase later, so the
    // credit still applies at cycle 41 either way.
    EXPECT_FALSE(chan.creditsDirty());
    ASSERT_EQ(upstream.credits.size(), 1u);
    EXPECT_EQ(upstream.credits[0].port, 5);
    EXPECT_EQ(upstream.credits[0].vc, 1);
    EXPECT_EQ(upstream.credits[0].at, 40u);
}

TEST(BoundaryChannelDirect, FailureVisibleImmediately)
{
    RecordingCreditSink upstream;
    BoundaryChannel chan(nullptr, &upstream, 0);
    chan.setDirect();

    EXPECT_FALSE(chan.failed());
    chan.stageFailure();
    EXPECT_TRUE(chan.failed());
    EXPECT_FALSE(chan.dirty()); // no swap needed to publish
}

TEST(BoundaryChannelDeath, ArrivalRingOverflowPanics)
{
    BitrateLevelTable levels = BitrateLevelTable::linear(5.0, 10.0, 6);
    LinkPowerLedger ledger(1);
    OpticalLink link("bnd", LinkKind::kInterRouter, levels,
                     OpticalLink::Params{}, ledger);
    RecordingCreditSink upstream;
    BoundaryChannel chan(&link, &upstream, 0);

    // Staging past the ring capacity without a drain must trip the
    // capacity panic, not silently wrap over undelivered flits.
    auto flood = [&] {
        for (int i = 0; i < 64; i++)
            chan.stageArrival(makeFlit(1, static_cast<std::uint16_t>(i)));
    };
    EXPECT_DEATH(flood(), "arrival ring overflow");
}

TEST(BoundaryChannelDeath, OverflowBoundsAgainstPublishedHeads)
{
    // In cross-shard mode each producer checks its ring against the
    // consumer's head as of the last publish — the live head belongs
    // to another shard's thread. A consumer that drained since then
    // frees no room until the next publish.
    BitrateLevelTable levels = BitrateLevelTable::linear(5.0, 10.0, 6);
    LinkPowerLedger ledger(1);
    OpticalLink link("bnd", LinkKind::kInterRouter, levels,
                     OpticalLink::Params{}, ledger);
    RecordingCreditSink upstream;

    BoundaryChannel flits(&link, &upstream, 0);
    for (int i = 0; i < 16; i++)
        flits.stageArrival(makeFlit(1, static_cast<std::uint16_t>(i)));
    flits.swapBuffers();
    while (flits.hasReadyArrival())
        flits.popReadyArrival();
    for (int i = 16; i < 32; i++) // published 16 + pending 16: fits
        flits.stageArrival(makeFlit(1, static_cast<std::uint16_t>(i)));
    EXPECT_DEATH(flits.stageArrival(makeFlit(1, 32)),
                 "arrival ring overflow");

    BoundaryChannel credits(&link, &upstream, 0);
    for (int i = 0; i < 4; i++)
        credits.returnCredit(0, 0, 1);
    credits.swapBuffers();
    credits.drainCredits();
    for (int i = 4; i < 8; i++)
        credits.returnCredit(0, 0, 2);
    EXPECT_DEATH(credits.returnCredit(0, 0, 2), "credit ring overflow");
}

/** @file Tests for the processing-node endpoint. */

#include <gtest/gtest.h>

#include <memory>

#include "network/node.hh"
#include "phy/power_ledger.hh"

using namespace oenet;

namespace {

struct CreditProbe : CreditSink
{
    int count = 0;
    void returnCredit(int, int, Cycle) override { count++; }
};

struct SinkProbe : PacketSink
{
    std::vector<std::pair<PacketId, Cycle>> ejections;
    void packetEjected(const Flit &tail, Cycle now) override
    {
        ejections.push_back({tail.packet, now});
    }
};

} // namespace

class NodeTest : public ::testing::Test
{
  protected:
    NodeTest() : levels_(BitrateLevelTable::linear(5.0, 10.0, 6))
    {
        Node::Params np;
        np.numVcs = 2;
        np.vcDepth = 8;
        node_ = std::make_unique<Node>(0, np);
        injLink_ = std::make_unique<OpticalLink>(
            "inj", LinkKind::kInjection, levels_, OpticalLink::Params{},
            ledger_);
        ejLink_ = std::make_unique<OpticalLink>(
            "ej", LinkKind::kEjection, levels_, OpticalLink::Params{},
            ledger_);
        node_->connectInjection(injLink_.get());
        node_->connectEjection(ejLink_.get(), &probe_, 3);
        node_->setPacketSink(&sink_);
    }

    BitrateLevelTable levels_;
    LinkPowerLedger ledger_{2};
    CreditProbe probe_;
    SinkProbe sink_;
    std::unique_ptr<Node> node_;
    std::unique_ptr<OpticalLink> injLink_;
    std::unique_ptr<OpticalLink> ejLink_;
};

TEST_F(NodeTest, EnqueueFlitizes)
{
    node_->enqueuePacket(1, 5, 4, 0);
    EXPECT_EQ(node_->sourceQueueFlits(), 4u);
    EXPECT_EQ(node_->packetsEnqueued(), 1u);
}

TEST_F(NodeTest, InjectsAtLinkRate)
{
    node_->enqueuePacket(1, 5, 4, 0);
    for (Cycle t = 0; t < 10; t++)
        node_->tick(t);
    EXPECT_EQ(node_->flitsInjected(), 4u);
    EXPECT_EQ(node_->sourceQueueFlits(), 0u);
    // All flits entered the link at one per cycle.
    EXPECT_EQ(injLink_->totalFlits(), 4u);
}

TEST_F(NodeTest, RespectsCredits)
{
    // 8 credits per VC, 2 VCs; a 20-flit packet stays on ONE VC
    // (wormhole), so only 8 flits can leave without credit returns.
    node_->enqueuePacket(1, 5, 20, 0);
    for (Cycle t = 0; t < 50; t++)
        node_->tick(t);
    EXPECT_EQ(node_->flitsInjected(), 8u);

    // Returning credits releases more flits (1-cycle delay applies).
    node_->returnCredit(0, injLink_->popArrival(50).vc, 50);
    node_->tick(51);
    node_->tick(52);
    EXPECT_EQ(node_->flitsInjected(), 9u);
}

TEST_F(NodeTest, SeparatePacketsUseRoundRobinVcs)
{
    node_->enqueuePacket(1, 5, 2, 0);
    node_->enqueuePacket(2, 5, 2, 0);
    for (Cycle t = 0; t < 10; t++)
        node_->tick(t);
    // Drain the link: first packet on one VC, second on the other.
    std::vector<int> vcs;
    while (injLink_->hasArrival(20))
        vcs.push_back(injLink_->popArrival(20).vc);
    ASSERT_EQ(vcs.size(), 4u);
    EXPECT_EQ(vcs[0], vcs[1]);
    EXPECT_EQ(vcs[2], vcs[3]);
    EXPECT_NE(vcs[0], vcs[2]);
}

TEST_F(NodeTest, EjectionReportsLatencyOnTail)
{
    std::vector<Flit> flits;
    flitizePacket(flits, 42, 3, 0, 2, 100);
    ejLink_->accept(200, flits[0]);
    ejLink_->accept(201, flits[1]);
    for (Cycle t = 200; t < 210; t++)
        node_->tick(t);
    ASSERT_EQ(sink_.ejections.size(), 1u);
    EXPECT_EQ(sink_.ejections[0].first, 42u);
    EXPECT_GE(sink_.ejections[0].second, 203u);
    EXPECT_EQ(node_->packetsEjected(), 1u);
    EXPECT_EQ(node_->flitsEjected(), 2u);
}

TEST_F(NodeTest, EjectionReturnsCreditsUpstream)
{
    std::vector<Flit> flits;
    flitizePacket(flits, 1, 3, 0, 3, 0);
    for (std::size_t i = 0; i < flits.size(); i++)
        ejLink_->accept(static_cast<Cycle>(i), flits[i]);
    for (Cycle t = 0; t < 10; t++)
        node_->tick(t);
    EXPECT_EQ(probe_.count, 3);
}

TEST_F(NodeTest, EjectionOccupancyIsZero)
{
    EXPECT_DOUBLE_EQ(node_->occupancyIntegral(0, 1000), 0.0);
    EXPECT_EQ(node_->bufferCapacity(0), 16);
}

TEST_F(NodeTest, HandlesNoTrafficGracefully)
{
    for (Cycle t = 0; t < 100; t++)
        node_->tick(t);
    EXPECT_EQ(node_->flitsInjected(), 0u);
    EXPECT_EQ(node_->packetsEjected(), 0u);
}

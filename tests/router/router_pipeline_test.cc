/**
 * @file
 * Single-router pipeline tests: a router is wired by hand to stub
 * endpoints and driven cycle by cycle, checking routing, pipeline
 * depth, wormhole semantics, credit flow, and backpressure.
 */

#include <gtest/gtest.h>

#include <map>
#include <memory>

#include "phy/power_ledger.hh"
#include "router/router.hh"

using namespace oenet;

namespace {

/** Records credits returned by the router for its input ports. */
struct CreditProbe : CreditSink
{
    std::map<std::pair<int, int>, int> credits; // (port, vc) -> count

    void returnCredit(int port, int vc, Cycle) override
    {
        credits[{port, vc}]++;
    }

    int total() const
    {
        int n = 0;
        for (const auto &kv : credits)
            n += kv.second;
        return n;
    }
};

} // namespace

class RouterPipelineTest : public ::testing::Test
{
  protected:
    static constexpr int kCluster = 2;
    static constexpr int kPorts = kCluster + 4;
    static constexpr int kVcDepth = 8; // 16 / 2 VCs

    RouterPipelineTest()
        : mesh_(2, 2, kCluster),
          levels_(BitrateLevelTable::linear(5.0, 10.0, 6))
    {
        Router::Params rp;
        rp.numVcs = 2;
        rp.bufferDepthPerPort = 16;
        router_ = std::make_unique<Router>("r0", 0, mesh_, rp);

        OpticalLink::Params lp;
        for (int p = 0; p < kPorts; p++) {
            inLinks_.push_back(std::make_unique<OpticalLink>(
                "in" + std::to_string(p), LinkKind::kInterRouter,
                levels_, lp, ledger_));
            outLinks_.push_back(std::make_unique<OpticalLink>(
                "out" + std::to_string(p), LinkKind::kInterRouter,
                levels_, lp, ledger_));
            router_->connectInput(p, inLinks_[p].get(), &probe_, p);
            router_->connectOutput(p, outLinks_[p].get(), kVcDepth);
        }
    }

    /** Feed one packet's flits into input @p port on @p vc as fast as
     *  the link takes them, while ticking the router and draining all
     *  outputs. Returns (output port -> flits seen) after settling. */
    void
    drive(Cycle cycles, std::vector<Flit> feed, int port,
          int vc, std::map<int, std::vector<Flit>> *out,
          bool return_credits = true)
    {
        std::size_t next = 0;
        int sent_on_vc = 0;
        for (Cycle t = 0; t < cycles; t++) {
            router_->tick(t);
            // Respect downstream credits like a real upstream would:
            // at most kVcDepth flits outstanding per VC.
            int returned = probe_.credits[{port, vc}];
            if (next < feed.size() && inLinks_[port]->canAccept(t) &&
                sent_on_vc - returned < kVcDepth) {
                Flit f = feed[next++];
                f.vc = static_cast<std::uint8_t>(vc);
                inLinks_[port]->accept(t, f);
                sent_on_vc++;
            }
            for (int q = 0; q < kPorts; q++) {
                while (outLinks_[q]->hasArrival(t)) {
                    Flit f = outLinks_[q]->popArrival(t);
                    (*out)[q].push_back(f);
                    if (return_credits)
                        router_->returnCredit(q, f.vc, t);
                }
            }
        }
    }

    std::vector<Flit> packet(PacketId id, NodeId dst, int len)
    {
        std::vector<Flit> flits;
        flitizePacket(flits, id, 0, dst, len, 0);
        return flits;
    }

    MeshTopology mesh_;
    BitrateLevelTable levels_;
    LinkPowerLedger ledger_{2};
    CreditProbe probe_;
    std::unique_ptr<Router> router_;
    std::vector<std::unique_ptr<OpticalLink>> inLinks_;
    std::vector<std::unique_ptr<OpticalLink>> outLinks_;
};

TEST_F(RouterPipelineTest, RoutesToLocalEjectionPort)
{
    std::map<int, std::vector<Flit>> out;
    // Node 1 lives in rack 0 at local index 1.
    drive(60, packet(1, 1, 4), 2, 0, &out);
    ASSERT_EQ(out[1].size(), 4u);
    for (int q = 0; q < kPorts; q++)
        if (q != 1)
            EXPECT_TRUE(out[q].empty()) << "port " << q;
}

TEST_F(RouterPipelineTest, RoutesEastByXy)
{
    std::map<int, std::vector<Flit>> out;
    // Rack (1,0) = rack 1; node = 1*2+0 = 2. From (0,0): east.
    drive(60, packet(1, 2, 3), 0, 0, &out);
    EXPECT_EQ(out[mesh_.dirPort(Direction::kEast).value()].size(), 3u);
}

TEST_F(RouterPipelineTest, RoutesSouthByXy)
{
    std::map<int, std::vector<Flit>> out;
    // Rack (0,1) = rack 2; node 4. From (0,0): south.
    drive(60, packet(1, 4, 3), 0, 0, &out);
    EXPECT_EQ(out[mesh_.dirPort(Direction::kSouth).value()].size(), 3u);
}

TEST_F(RouterPipelineTest, FlitsStayInOrder)
{
    std::map<int, std::vector<Flit>> out;
    drive(80, packet(1, 1, 8), 0, 0, &out);
    ASSERT_EQ(out[1].size(), 8u);
    for (int i = 0; i < 8; i++)
        EXPECT_EQ(out[1][static_cast<std::size_t>(i)].seq, i);
}

TEST_F(RouterPipelineTest, PipelineLatencyIsFiveishCycles)
{
    // Head flit: accept at t=0, arrives at router t=2 (ser+prop),
    // RC/VA/SA/ST are one cycle each, plus output link traversal.
    std::map<int, std::vector<Flit>> out;
    Cycle first_seen = 0;
    std::vector<Flit> feed = packet(1, 1, 1);
    std::size_t next = 0;
    for (Cycle t = 0; t < 40 && out[1].empty(); t++) {
        router_->tick(t);
        if (next < feed.size() && inLinks_[0]->canAccept(t)) {
            Flit f = feed[next++];
            f.vc = 0;
            inLinks_[0]->accept(t, f);
        }
        if (outLinks_[1]->hasArrival(t)) {
            out[1].push_back(outLinks_[1]->popArrival(t));
            first_seen = t;
        }
    }
    ASSERT_EQ(out[1].size(), 1u);
    // 2 (input LT) + 4 (RC,VA,SA,ST) + 2 (output LT) = 8, +-1 for
    // stage alignment.
    EXPECT_GE(first_seen, 7u);
    EXPECT_LE(first_seen, 10u);
}

TEST_F(RouterPipelineTest, CreditsReturnedPerFlit)
{
    std::map<int, std::vector<Flit>> out;
    drive(80, packet(1, 1, 6), 0, 0, &out);
    ASSERT_EQ(out[1].size(), 6u);
    EXPECT_EQ((probe_.credits[{0, 0}]), 6);
}

TEST_F(RouterPipelineTest, BackpressureWithoutCredits)
{
    // Never return credits on the output: the router can forward at
    // most kVcDepth flits on that VC, then must stall.
    std::map<int, std::vector<Flit>> out;
    drive(200, packet(1, 1, 20), 0, 0, &out, false);
    EXPECT_EQ(out[1].size(), static_cast<std::size_t>(kVcDepth));
    // The stalled flits sit in the router, not lost.
    EXPECT_GT(router_->totalBufferedFlits(), 0);
}

TEST_F(RouterPipelineTest, TailReleasesVcForNextPacket)
{
    auto feed = packet(1, 1, 3);
    auto second = packet(2, 3, 3); // east (rack 1, node 3)
    feed.insert(feed.end(), second.begin(), second.end());
    std::map<int, std::vector<Flit>> out;
    drive(120, feed, 0, 0, &out);
    EXPECT_EQ(out[1].size(), 3u);
    EXPECT_EQ(out[mesh_.dirPort(Direction::kEast).value()].size(), 3u);
}

TEST_F(RouterPipelineTest, TwoInputsContendingShareOutput)
{
    // Both inputs send to node 1; both packets must complete.
    std::map<int, std::vector<Flit>> out;
    auto feed_a = packet(1, 1, 5);
    auto feed_b = packet(2, 1, 5);
    std::size_t na = 0, nb = 0;
    for (Cycle t = 0; t < 150; t++) {
        router_->tick(t);
        if (na < feed_a.size() && inLinks_[2]->canAccept(t)) {
            Flit f = feed_a[na++];
            f.vc = 0;
            inLinks_[2]->accept(t, f);
        }
        if (nb < feed_b.size() && inLinks_[3]->canAccept(t)) {
            Flit f = feed_b[nb++];
            f.vc = 0;
            inLinks_[3]->accept(t, f);
        }
        while (outLinks_[1]->hasArrival(t)) {
            Flit f = outLinks_[1]->popArrival(t);
            out[1].push_back(f);
            router_->returnCredit(1, f.vc, t);
        }
    }
    ASSERT_EQ(out[1].size(), 10u);
    // Wormhole on distinct VCs: flits of each packet stay in order.
    std::map<PacketId, int> last_seq;
    for (const Flit &f : out[1]) {
        auto it = last_seq.find(f.packet);
        if (it != last_seq.end()) {
            EXPECT_GT(static_cast<int>(f.seq), it->second);
        }
        last_seq[f.packet] = f.seq;
    }
}

TEST_F(RouterPipelineTest, VcsCarrySeparatePackets)
{
    // Two packets on different VCs of the SAME input port proceed
    // concurrently.
    std::map<int, std::vector<Flit>> out;
    auto feed_a = packet(1, 1, 4); // vc 0 -> local 1
    auto feed_b = packet(2, 0, 4); // vc 1 -> local 0
    std::size_t na = 0, nb = 0;
    for (Cycle t = 0; t < 150; t++) {
        router_->tick(t);
        if (inLinks_[2]->canAccept(t)) {
            if (na < feed_a.size()) {
                Flit f = feed_a[na++];
                f.vc = 0;
                inLinks_[2]->accept(t, f);
            } else if (nb < feed_b.size()) {
                Flit f = feed_b[nb++];
                f.vc = 1;
                inLinks_[2]->accept(t, f);
            }
        }
        for (int q : {0, 1}) {
            while (outLinks_[q]->hasArrival(t)) {
                Flit f = outLinks_[q]->popArrival(t);
                out[q].push_back(f);
                router_->returnCredit(q, f.vc, t);
            }
        }
    }
    EXPECT_EQ(out[1].size(), 4u);
    EXPECT_EQ(out[0].size(), 4u);
}

TEST_F(RouterPipelineTest, OccupancyIntegralGrowsUnderBackpressure)
{
    std::map<int, std::vector<Flit>> out;
    drive(100, packet(1, 1, 20), 0, 0, &out, false);
    // Buffered flits linger: the integral must be well above zero.
    EXPECT_GT(router_->occupancyIntegral(0, 100), 10.0);
    EXPECT_EQ(router_->bufferCapacity(0), 16);
}

TEST_F(RouterPipelineTest, OutputWaitingProbe)
{
    EXPECT_FALSE(router_->outputWaiting(1));
    std::map<int, std::vector<Flit>> out;
    drive(100, packet(1, 1, 20), 0, 0, &out, false);
    EXPECT_TRUE(router_->outputWaiting(1));
}

TEST_F(RouterPipelineTest, FlitsSwitchedCounter)
{
    std::map<int, std::vector<Flit>> out;
    drive(80, packet(1, 1, 6), 0, 0, &out);
    EXPECT_EQ(router_->flitsSwitched(), 6u);
}

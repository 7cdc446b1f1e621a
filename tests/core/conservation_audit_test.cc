/**
 * @file
 * Tests for the conservation audit: flit-ledger balance and credit
 * restitution on fault-free runs, flit-ledger balance across hard
 * link failures (drops, poison tails, stranded traffic), the settle
 * loop's census and budget, and the Debug-default / config-override
 * gating.
 */

#include <gtest/gtest.h>

#include "core/experiment.hh"
#include "core/poe_system.hh"
#include "core/sweeps.hh"
#include "traffic/uniform.hh"

using namespace oenet;

namespace {

SystemConfig
smallConfig()
{
    SystemConfig c;
    c.meshX = 2;
    c.meshY = 2;
    c.clusterSize = 2;
    c.windowCycles = 200;
    c.conservationAudit = true; // run the audit in every build type
    return c;
}

RunProtocol
shortProtocol()
{
    RunProtocol p;
    p.warmup = 1000;
    p.measure = 4000;
    p.drainLimit = 6000;
    return p;
}

} // namespace

TEST(ConservationAudit, FaultFreeRunBalances)
{
    RunMetrics m = runExperiment(smallConfig(),
                                 TrafficSpec::uniform(0.5, 4, 7),
                                 shortProtocol());
    EXPECT_GT(m.packetsMeasured, 0u);
    EXPECT_EQ(m.auditFailures, 0u)
        << "flit or credit books did not balance on a clean run";
}

TEST(ConservationAudit, SaturatedRunBalances)
{
    // Past saturation the drain limit is routinely missed — the audit
    // must balance with traffic still queued at the sources.
    RunMetrics m = runExperiment(smallConfig(),
                                 TrafficSpec::uniform(4.0, 4, 7),
                                 shortProtocol());
    EXPECT_EQ(m.auditFailures, 0u);
}

TEST(ConservationAudit, HardLinkFailureStillBalances)
{
    // Kill a link mid-warmup: its in-flight flits drop, wormholes
    // strand and get poisoned, later flits die at the dead port. The
    // lifetime ledger must absorb all of it (including drops from
    // before startMeasurement resets the windowed counters).
    SystemConfig c = smallConfig();
    c.fault.enabled = true;
    c.fault.killLink = 8;
    c.fault.killCycle = 500; // inside the 1000-cycle warmup
    c.fault.orphanTimeoutCycles = 256;
    RunMetrics m = runExperiment(c, TrafficSpec::uniform(0.6, 4, 11),
                                 shortProtocol());
    EXPECT_EQ(m.linkHardFailures, 1);
    EXPECT_EQ(m.auditFailures, 0u)
        << "flit ledger lost track of dropped/poisoned traffic";
}

TEST(ConservationAudit, DirectAuditOnQuiescentSystem)
{
    SystemConfig c = smallConfig();
    PoeSystem sys(c);
    sys.setTraffic(std::make_unique<UniformRandomTraffic>(
        UniformRandomTraffic::Params{c.numNodes(), 0.4, 4, 3}));
    sys.run(3000);
    EXPECT_EQ(sys.auditConservation(), 0u);
    // The audit detached the traffic source; the system is quiescent
    // and every counter accounted for, so a second pass agrees. Its
    // first census comes before any settle step, and finds the fabric
    // settled, so it steps no cycle.
    Cycle settled_at = sys.now();
    EXPECT_EQ(sys.auditConservation(), 0u);
    EXPECT_EQ(sys.now(), settled_at);
}

TEST(ConservationAudit, SettleLoopStopsAtTheLimit)
{
    // Saturated sources keep the fabric busy long past the limit, so
    // the settle loop runs out its budget. 100 is not a multiple of
    // the census stride: the loop must still stop exactly there, and
    // the flit books must balance on the unsettled fabric, counting
    // the flits staged in the channels that two shards put on the
    // links between them.
    SystemConfig c = smallConfig();
    c.shards = 2;
    PoeSystem sys(c);
    sys.setTraffic(makeTraffic(TrafficSpec::uniform(4.0, 4, 7), c));
    sys.run(3000);
    Cycle before = sys.now();
    EXPECT_EQ(sys.auditConservation(100), 0u);
    EXPECT_EQ(sys.now(), before + 100);
}

TEST(ConservationAudit, CensusHoldsTheLastCreditAfterTheLastFlit)
{
    // A node returns the tail's credit to its router as it ejects the
    // tail, and the router applies it a cycle later: a census taken in
    // between finds no flit in the fabric but must not call it
    // settled, or the audit would check credit pools still filling.
    SystemConfig c = smallConfig();
    PoeSystem sys(c);
    Network &net = sys.network();
    net.injectPacket(0, 3, 4, sys.now());
    while (net.flitsEjected() < 4 && sys.now() < 1000)
        sys.run(1);
    ASSERT_EQ(net.flitsEjected(), 4u);
    Network::Census census = net.census();
    EXPECT_EQ(census.fabricFlits, 0u);
    EXPECT_EQ(census.pendingCredits, 1u);
    EXPECT_FALSE(census.settled());
    sys.run(1);
    EXPECT_TRUE(net.census().settled());
}

TEST(ConservationAudit, FaultedFabricBalancesAtEveryShardCount)
{
    // A killed inter-router link and a BER floor exercise drops,
    // replays, poison tails and dead-port discards, sharded or not;
    // the audit settles what the traffic leaves in flight and the
    // books must balance.
    for (int shards : {1, 3}) {
        SystemConfig c = smallConfig();
        c.meshX = 4;
        c.meshY = 3;
        c.shards = shards;
        c.routing = RoutingAlgo::kWestFirst;
        c.fault.enabled = true;
        c.fault.berFloor = 1e-4;
        c.fault.killLink = 60; // inter-router: 48 endpoint links first
        c.fault.killCycle = 700;
        c.fault.orphanTimeoutCycles = 256;
        PoeSystem sys(c);
        sys.setTraffic(makeTraffic(TrafficSpec::uniform(1.0, 4, 13), c));
        sys.run(2000);
        Network &net = sys.network();
        EXPECT_EQ(net.failedLinks(), 1);
        EXPECT_GT(net.flitsDroppedOnFailLifetime() +
                      net.flitsDroppedDeadPort(),
                  0u);
        EXPECT_EQ(sys.auditConservation(), 0u) << "shards=" << shards;
    }
}

TEST(ConservationAudit, TimelineRunBalances)
{
    TimelineResult r =
        runTimeline(smallConfig(), TrafficSpec::uniform(0.5, 4, 9),
                    4000, 1000, 500);
    EXPECT_EQ(r.metrics.auditFailures, 0u);
}

TEST(ConservationAudit, ConfigOverrideGatesTheAudit)
{
    SystemConfig c;
    c.conservationAudit = false;
    EXPECT_FALSE(c.conservationAuditEnabled());
    c.conservationAudit = true;
    EXPECT_TRUE(c.conservationAuditEnabled());
    c.conservationAudit.reset();
    EXPECT_TRUE(c.conservationAuditEnabled())
        << "audit must be on by default in every build type";
}

/**
 * @file
 * Tests for the conservation audit: flit-ledger balance and credit
 * restitution on fault-free runs, flit-ledger balance across hard
 * link failures (drops, poison tails, stranded traffic), and the
 * Debug-default / config-override gating.
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
    // and every counter accounted for, so a second pass agrees.
    EXPECT_EQ(sys.auditConservation(), 0u);
}

TEST(ConservationAudit, RunningCountsMatchTheScanEveryCycle)
{
    // The settle loop reads the shards' running counts instead of
    // scanning the fabric. Every flit entry, ejection, drop and poison
    // tail, and every credit return and apply, must keep them equal
    // to the scan at every step boundary, sharded or not. A killed
    // inter-router link and a BER floor exercise drops, replays,
    // poison tails and dead-port discards.
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
        Network &net = sys.network();
        for (int cycle = 0; cycle < 3000; cycle++) {
            if (cycle == 2000)
                sys.setTraffic(nullptr);
            sys.run(1);
            std::int64_t pending = 0;
            for (int r = 0; r < net.numRouters(); r++)
                pending += static_cast<std::int64_t>(
                    net.router(r).pendingCreditCount());
            for (int n = 0; n < net.numNodes(); n++)
                pending += static_cast<std::int64_t>(
                    net.node(n).pendingCreditCount());
            ASSERT_EQ(net.fabricFlits(),
                      static_cast<std::int64_t>(net.flitsInSystem() -
                                                net.sourceQueuedFlits()))
                << "shards=" << shards << " cycle=" << cycle;
            ASSERT_EQ(net.pendingCredits(), pending)
                << "shards=" << shards << " cycle=" << cycle;
        }
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
#ifdef NDEBUG
    EXPECT_FALSE(c.conservationAuditEnabled())
        << "audit must be off by default in Release builds";
#else
    EXPECT_TRUE(c.conservationAuditEnabled())
        << "audit must be on by default in Debug builds";
#endif
}

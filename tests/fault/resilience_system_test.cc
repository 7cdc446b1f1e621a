/**
 * @file
 * Whole-system resilience: a 4x4 mesh with a hard-failed inter-router
 * link keeps delivering under west-first adaptive routing, fault
 * counters surface in RunMetrics, and faulted runs repeat
 * bit-identically.
 */

#include <gtest/gtest.h>

#include "core/sweeps.hh"

using namespace oenet;

namespace {

SystemConfig
meshConfig()
{
    SystemConfig c;
    c.meshX = 4;
    c.meshY = 4;
    c.clusterSize = 1;
    c.routing = RoutingAlgo::kWestFirst;
    c.powerAware = false;
    return c;
}

int
firstInterRouterLink(const SystemConfig &config)
{
    PoeSystem sys(config);
    for (std::size_t i = 0; i < sys.network().numLinks(); i++) {
        if (sys.network().linkSpec(i).kind == LinkKind::kInterRouter)
            return static_cast<int>(i);
    }
    return kInvalid;
}

RunMetrics
runFaulted(const SystemConfig &config, std::uint64_t seed)
{
    RunProtocol p;
    p.warmup = 2000;
    p.measure = 10000;
    p.drainLimit = 10000;
    return runExperiment(config, TrafficSpec::uniform(0.4, 4, seed), p);
}

} // namespace

TEST(Resilience, RoutesAroundHardFailedLink)
{
    SystemConfig c = meshConfig();
    int kill = firstInterRouterLink(c);
    ASSERT_NE(kill, kInvalid);
    c.fault.enabled = true;
    c.fault.killLink = kill;
    c.fault.killCycle = 5000; // mid-measurement

    RunMetrics m = runFaulted(c, 21);
    EXPECT_EQ(m.linkHardFailures, 1);
    EXPECT_GT(m.throughputFlitsPerCycle, 0.0)
        << "the mesh must keep delivering around the dead link";
    EXPECT_GT(m.packetsMeasured, 0u);
    // Traffic aimed at the dead port is discarded there, not wedged.
    EXPECT_GT(m.flitsDroppedDeadPort, 0u);
}

TEST(Resilience, PoisonedWormholesLeaveNoFlitBehind)
{
    // Killing link 16 of a 2x2x2 mesh strands wormholes whose bodies
    // died with it; the orphan reclaim closes each with a synthetic
    // poison tail that switch allocation must forward like any other
    // buffered flit. A poison tail the allocator never sees holds its
    // VC, and every wormhole queued behind it, for good: the fabric
    // would keep thousands of flits after the sources stop.
    SystemConfig c;
    c.meshX = 2;
    c.meshY = 2;
    c.clusterSize = 2;
    c.windowCycles = 200;
    c.fault.enabled = true;
    c.fault.killLink = 16;
    c.fault.killCycle = 500;
    c.fault.orphanTimeoutCycles = 256;
    PoeSystem sys(c);
    sys.setTraffic(makeTraffic(TrafficSpec::uniform(0.8, 4, 12), c));
    sys.run(4000);
    sys.setTraffic(nullptr);
    sys.run(20000);
    EXPECT_GT(sys.network().poisonedWormholes(), 0u);
    EXPECT_EQ(sys.network().flitsInSystem(), 0u);
}

TEST(Resilience, NoFaultsMeansZeroFaultCounters)
{
    SystemConfig c = meshConfig();
    RunMetrics m = runFaulted(c, 21);
    EXPECT_EQ(m.linkHardFailures, 0);
    EXPECT_EQ(m.flitsCorrupted, 0u);
    EXPECT_EQ(m.flitRetries, 0u);
    EXPECT_EQ(m.lockLossEvents, 0u);
    EXPECT_EQ(m.flitsDroppedOnFail, 0u);
    EXPECT_EQ(m.flitsDroppedDeadPort, 0u);
    EXPECT_EQ(m.poisonedWormholes, 0u);
    EXPECT_EQ(m.dvsClamps, 0u);
    EXPECT_TRUE(m.drained);
}

TEST(Resilience, BerFloorCausesRetriesButDelivers)
{
    SystemConfig c = meshConfig();
    c.fault.enabled = true;
    c.fault.berFloor = 5e-4;
    RunMetrics m = runFaulted(c, 33);
    EXPECT_GT(m.flitsCorrupted, 0u);
    EXPECT_GT(m.flitRetries, 0u);
    EXPECT_TRUE(m.drained)
        << "transient corruption must never lose flits";
    EXPECT_GT(m.packetsMeasured, 0u);
}

TEST(Resilience, FaultedRunRepeatsBitIdentically)
{
    SystemConfig c = meshConfig();
    c.fault.enabled = true;
    c.fault.berFloor = 5e-4;
    c.fault.lockLossPerCycle = 1e-5;
    RunMetrics a = runFaulted(c, 13);
    RunMetrics b = runFaulted(c, 13);
    EXPECT_EQ(a.flitsCorrupted, b.flitsCorrupted);
    EXPECT_EQ(a.flitRetries, b.flitRetries);
    EXPECT_EQ(a.lockLossEvents, b.lockLossEvents);
    EXPECT_EQ(a.packetsMeasured, b.packetsMeasured);
    EXPECT_DOUBLE_EQ(a.avgLatency, b.avgLatency);
    EXPECT_DOUBLE_EQ(a.avgPowerMw, b.avgPowerMw);
}

TEST(Resilience, DifferentFaultSeedsDifferentHistories)
{
    SystemConfig c = meshConfig();
    c.fault.enabled = true;
    c.fault.berFloor = 5e-4;
    // Same traffic seed, different explicit fault seeds.
    c.fault.seed = 100;
    RunMetrics a = runFaulted(c, 13);
    c.fault.seed = 200;
    RunMetrics b = runFaulted(c, 13);
    EXPECT_NE(a.flitsCorrupted, b.flitsCorrupted);
}

TEST(Resilience, DvsClampHoldsLevelUnderErrors)
{
    // A power-aware run with an error floor past the clamp threshold:
    // the clamp must fire and keep links from scaling down into the
    // noise.
    SystemConfig c = meshConfig();
    c.powerAware = true;
    c.windowCycles = 500;
    c.fault.enabled = true;
    c.fault.berFloor = 4e-3; // ~6% flit error rate > 5% threshold
    RunMetrics m = runFaulted(c, 17);
    EXPECT_GT(m.dvsClamps, 0u);

    // Ablation: threshold 1.0 can never be exceeded, so no clamps.
    c.fault.clampErrorRate = 1.0;
    RunMetrics noclamp = runFaulted(c, 17);
    EXPECT_EQ(noclamp.dvsClamps, 0u);
    // Without the clamp the policy scales down more aggressively.
    EXPECT_LE(noclamp.avgPowerMw, m.avgPowerMw);
}

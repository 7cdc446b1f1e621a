/** @file Tests for the proportional DVS policy extension. */

#include <gtest/gtest.h>

#include "core/sweeps.hh"
#include "phy/power_ledger.hh"
#include "policy/proportional.hh"

using namespace oenet;

TEST(ProportionalPolicy, ZeroDemandPicksBottomLevel)
{
    ProportionalDvsPolicy p;
    auto levels = BitrateLevelTable::linear(5.0, 10.0, 6);
    p.observe(0.0);
    EXPECT_EQ(p.chooseLevel(levels), 0);
}

TEST(ProportionalPolicy, FullDemandPicksTopLevel)
{
    ProportionalDvsPolicy p;
    auto levels = BitrateLevelTable::linear(5.0, 10.0, 6);
    p.observe(1.0); // one flit/cycle = full wire rate
    EXPECT_EQ(p.chooseLevel(levels), levels.maxLevel());
}

TEST(ProportionalPolicy, TargetUtilizationProvisioning)
{
    ProportionalDvsParams params;
    params.targetUtilization = 0.5;
    ProportionalDvsPolicy p(params);
    auto levels = BitrateLevelTable::linear(5.0, 10.0, 6);
    // Demand 0.3 flits/cycle at 50% target needs 0.6 capacity ->
    // 6 Gb/s -> level 1.
    p.observe(0.3);
    EXPECT_EQ(p.chooseLevel(levels), 1);
    // Demand 0.42 needs 0.84 -> 9 Gb/s -> level 4.
    p.reset();
    p.observe(0.42);
    EXPECT_EQ(p.chooseLevel(levels), 4);
}

TEST(ProportionalPolicy, SlidingAverageSmooths)
{
    ProportionalDvsParams params;
    params.slidingWindows = 4;
    ProportionalDvsPolicy p(params);
    p.observe(0.8);
    p.observe(0.0);
    p.observe(0.0);
    p.observe(0.0);
    EXPECT_NEAR(p.predictedDemand(), 0.2, 1e-12);
}

TEST(ProportionalPolicy, HeadroomMultiplies)
{
    ProportionalDvsParams params;
    params.headroom = 2.0;
    ProportionalDvsPolicy p(params);
    p.observe(0.2);
    EXPECT_NEAR(p.predictedDemand(), 0.4, 1e-12);
}

TEST(ProportionalController, TracksLoadOnALink)
{
    auto levels = BitrateLevelTable::linear(5.0, 10.0, 6);
    LinkPowerLedger ledger(1);
    OpticalLink link("p", LinkKind::kInterRouter, levels,
                     OpticalLink::Params{}, ledger);
    ProportionalDvsParams params;
    params.slidingWindows = 1;
    ProportionalController ctrl(link, params);

    // Idle windows: drop to the bottom in ONE retarget.
    link.beginWindow(0);
    ctrl.onWindow(1000);
    // Wait out the transition (freq 20 + volt 100).
    EXPECT_EQ(link.currentLevel(), 0);
    EXPECT_EQ(ctrl.retargets(), 1u);

    // Saturate at the bottom rate, then expect an upward retarget.
    Flit f;
    f.flags = Flit::kHeadFlag | Flit::kTailFlag;
    Cycle t = 2000;
    for (; t < 4000; t++) {
        if (link.canAccept(t))
            link.accept(t, f);
        while (link.hasArrival(t))
            (void)link.popArrival(t);
    }
    ctrl.onWindow(4000);
    EXPECT_GT(link.currentLevel(), 0);
}

TEST(ProportionalMode, SystemIdleScalesDownFast)
{
    SystemConfig cfg;
    cfg.meshX = 2;
    cfg.meshY = 2;
    cfg.clusterSize = 2;
    cfg.policyMode = PolicyMode::kProportional;
    cfg.windowCycles = 200;
    PoeSystem sys(cfg);
    // One window plus one transition is enough for the jump-to-target
    // policy (the stepper needs five).
    sys.run(500);
    Network &net = sys.network();
    for (std::size_t i = 0; i < net.numLinks(); i++)
        EXPECT_EQ(net.link(i).currentLevel(), 0)
            << net.link(i).name();
}

TEST(ProportionalMode, DeliversUnderLoad)
{
    SystemConfig cfg;
    cfg.meshX = 2;
    cfg.meshY = 2;
    cfg.clusterSize = 2;
    cfg.policyMode = PolicyMode::kProportional;
    cfg.windowCycles = 200;
    RunProtocol p;
    p.warmup = 3000;
    p.measure = 8000;
    RunMetrics m = runExperiment(cfg, TrafficSpec::uniform(0.4, 4, 3),
                                 p);
    EXPECT_TRUE(m.drained);
    EXPECT_GT(m.packetsMeasured, 1000u);
    EXPECT_LT(m.normalizedPower, 0.5);
}

TEST(ProportionalModeDeath, BadTargetUtilizationFatal)
{
    ProportionalDvsParams p;
    p.targetUtilization = 0.0;
    EXPECT_EXIT(ProportionalDvsPolicy policy(p),
                ::testing::ExitedWithCode(1), "utilization");
}

/** @file Tests for SystemConfig parsing and parameter plumbing. */

#include <gtest/gtest.h>

#include "common/parallel.hh"
#include "core/poe_system.hh"
#include "core/system_config.hh"

using namespace oenet;

TEST(SystemConfig, DefaultsMatchPaperSection41)
{
    SystemConfig c;
    EXPECT_EQ(c.meshX, 8);
    EXPECT_EQ(c.meshY, 8);
    EXPECT_EQ(c.clusterSize, 8);
    EXPECT_EQ(c.numNodes(), 512);
    EXPECT_EQ(c.bufferDepthPerPort, 16);
    EXPECT_DOUBLE_EQ(c.brMinGbps, 5.0);
    EXPECT_DOUBLE_EQ(c.brMaxGbps, 10.0);
    EXPECT_EQ(c.numLevels, 6);
    EXPECT_EQ(c.freqTransitionCycles, 20u); // T_br
    EXPECT_EQ(c.voltTransitionCycles, 100u); // T_v
    EXPECT_EQ(c.windowCycles, 1000u);        // T_w
    EXPECT_TRUE(c.powerAware);
    EXPECT_EQ(c.scheme, LinkScheme::kModulator);
    EXPECT_EQ(c.opticalMode, OpticalMode::kFixed);
}

TEST(SystemConfig, FromConfigOverrides)
{
    Config raw;
    raw.set("mesh.x", "4");
    raw.set("mesh.y", "4");
    raw.set("mesh.cluster", "2");
    raw.set("link.scheme", "vcsel");
    raw.set("link.br_min", "3.3");
    raw.set("policy.window", "500");
    raw.set("policy.th_high", "0.8");
    raw.set("policy.mode", "onoff");
    SystemConfig c = SystemConfig::fromConfig(raw);
    EXPECT_EQ(c.meshX, 4);
    EXPECT_EQ(c.numNodes(), 32);
    EXPECT_EQ(c.scheme, LinkScheme::kVcsel);
    EXPECT_DOUBLE_EQ(c.brMinGbps, 3.3);
    EXPECT_EQ(c.windowCycles, 500u);
    EXPECT_DOUBLE_EQ(c.policy.thHighUncongested, 0.8);
    EXPECT_EQ(c.policyMode, PolicyMode::kOnOff);
}

TEST(SystemConfig, TriLevelParsing)
{
    Config raw;
    raw.set("optical.mode", "trilevel");
    SystemConfig c = SystemConfig::fromConfig(raw);
    EXPECT_EQ(c.opticalMode, OpticalMode::kTriLevel);
}

TEST(SystemConfig, NetworkParamsPlumbed)
{
    SystemConfig c;
    c.brMinGbps = 3.3;
    c.numLevels = 4;
    c.freqTransitionCycles = 7;
    Network::Params p = c.networkParams();
    EXPECT_EQ(p.levels.numLevels(), 4);
    EXPECT_DOUBLE_EQ(p.levels.minBitRateGbps(), 3.3);
    EXPECT_EQ(p.link.freqTransitionCycles, 7u);
    EXPECT_EQ(p.link.initialLevel, kInvalid); // start at max
}

TEST(SystemConfig, EngineParamsPlumbed)
{
    SystemConfig c;
    c.windowCycles = 777;
    c.policy.slidingWindows = 9;
    c.opticalMode = OpticalMode::kTriLevel;
    PolicyEngine::Params p = c.engineParams();
    EXPECT_EQ(p.windowCycles, 777u);
    EXPECT_EQ(p.link.policy.slidingWindows, 9);
    EXPECT_EQ(p.link.opticalMode, OpticalMode::kTriLevel);
}

TEST(SystemConfigDeath, BadSchemeFatal)
{
    Config raw;
    raw.set("link.scheme", "quantum");
    EXPECT_EXIT((void)SystemConfig::fromConfig(raw),
                ::testing::ExitedWithCode(1), "scheme");
}

TEST(SystemConfigDeath, TriLevelRequiresModulator)
{
    Config raw;
    raw.set("optical.mode", "trilevel");
    raw.set("link.scheme", "vcsel");
    EXPECT_EXIT((void)SystemConfig::fromConfig(raw),
                ::testing::ExitedWithCode(1), "modulator");
}

TEST(SystemConfig, ResolvedShardsFollowsFabricAndCores)
{
    auto mesh = [](int x, int y) {
        SystemConfig c;
        c.meshX = x;
        c.meshY = y;
        return c;
    };
    // Auto: one shard per kMinRoutersPerShard routers, capped by the
    // cores, never below one.
    EXPECT_EQ(mesh(8, 8).resolvedShards(4), 1);
    EXPECT_EQ(mesh(8, 8).resolvedShards(64), 1);
    EXPECT_EQ(mesh(12, 12).resolvedShards(4), 2);
    EXPECT_EQ(mesh(32, 32).resolvedShards(4), 4);
    EXPECT_EQ(mesh(32, 32).resolvedShards(1), 1);
    EXPECT_EQ(mesh(32, 32).resolvedShards(64), 16);
    EXPECT_EQ(mesh(2, 2).resolvedShards(4), 1);
    EXPECT_EQ(mesh(32, 32).resolvedShards(0), 1);

    // Every topology kind counts its routers: a 16-ary fat-tree has
    // 16 * 8 * 2 + 8 * 8 = 320 switches.
    SystemConfig ft;
    ft.topology = TopologyKind::kFatTree;
    ft.fatTreeArity = 16;
    EXPECT_EQ(ft.resolvedShards(8), 5);

    // An explicit count passes through, whatever the cores.
    SystemConfig c = mesh(8, 8);
    c.shards = 3;
    EXPECT_EQ(c.resolvedShards(1), 3);
    EXPECT_EQ(c.resolvedShards(64), 3);
}

TEST(SystemConfig, PoeSystemResolvesAutoShardsWithTheMachine)
{
    SystemConfig c;
    c.meshX = 32;
    c.meshY = 32;
    EXPECT_EQ(PoeSystem(c).kernel().shardCount(),
              c.resolvedShards(hardwareJobs()));
    c.shards = 2;
    EXPECT_EQ(PoeSystem(c).kernel().shardCount(), 2);
    // 8x8 stays serial.
    EXPECT_EQ(PoeSystem(SystemConfig{}).kernel().shardCount(), 1);
}

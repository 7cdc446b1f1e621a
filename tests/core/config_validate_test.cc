/**
 * @file
 * SystemConfig::validate(): nonsensical configurations must die with a
 * clear message instead of silently simulating garbage; legitimate
 * edge cases (zero transition times, defaults) must pass.
 */

#include <gtest/gtest.h>

#include "core/poe_system.hh"
#include "core/system_config.hh"

using namespace oenet;

namespace {

/** validate() calls fatal(), which exits with code 1 after logging. */
void
expectRejected(const SystemConfig &c, const char *pattern)
{
    EXPECT_EXIT(c.validate(), ::testing::ExitedWithCode(1), pattern);
}

} // namespace

TEST(ConfigValidate, DefaultConfigIsValid)
{
    SystemConfig c;
    c.validate(); // must not die
    SUCCEED();
}

TEST(ConfigValidate, ZeroTransitionTimesAreValid)
{
    // The no_tv / no_tbr ablations from the paper zero these out.
    SystemConfig c;
    c.voltTransitionCycles = 0;
    c.freqTransitionCycles = 0;
    c.validate();
    SUCCEED();
}

TEST(ConfigValidate, RejectsBadMesh)
{
    SystemConfig c;
    c.meshX = 0;
    expectRejected(c, "mesh.x/mesh.y must be >= 1");
    c = SystemConfig{};
    c.meshY = -2;
    expectRejected(c, "mesh.x/mesh.y must be >= 1");
    c = SystemConfig{};
    c.clusterSize = 0;
    expectRejected(c, "mesh.cluster must be >= 1");
}

TEST(ConfigValidate, RejectsBadRouter)
{
    SystemConfig c;
    c.numVcs = 0;
    expectRejected(c, "router.vcs must be >= 1");
    c = SystemConfig{};
    c.bufferDepthPerPort = c.numVcs - 1;
    expectRejected(c, "must be >= router.vcs");
}

TEST(ConfigValidate, RejectsBadLinkRates)
{
    SystemConfig c;
    c.brMinGbps = 0.0;
    expectRejected(c, "link.br_min must be > 0");
    c = SystemConfig{};
    c.brMaxGbps = c.brMinGbps - 1.0;
    expectRejected(c, "must be >= link.br_min");
    c = SystemConfig{};
    c.numLevels = 0;
    expectRejected(c, "link.levels must be >= 1");
}

TEST(ConfigValidate, RejectsBadPolicyLevels)
{
    SystemConfig c;
    c.staticLevel = c.numLevels;
    expectRejected(c, "policy.static_level");
    c = SystemConfig{};
    c.minLevel = -1;
    expectRejected(c, "policy.min_level");
    c = SystemConfig{};
    c.powerAware = true;
    c.windowCycles = 0;
    expectRejected(c, "policy.window must be > 0");
}

TEST(ConfigValidate, RejectsTrilevelWithVcsel)
{
    SystemConfig c;
    c.opticalMode = OpticalMode::kTriLevel;
    c.scheme = LinkScheme::kVcsel;
    expectRejected(c, "requires the modulator");
}

TEST(ConfigValidate, RejectsBadFaultProbabilities)
{
    SystemConfig c;
    c.fault.berFloor = 1.5;
    expectRejected(c, "fault.ber_floor must be a probability");
    c = SystemConfig{};
    c.fault.lockLossPerCycle = -0.1;
    expectRejected(c, "fault.lock_loss must be a probability");
    c = SystemConfig{};
    c.fault.berScale = -1.0;
    expectRejected(c, "fault.ber_scale must be >= 0");
    c = SystemConfig{};
    c.fault.voaDelayProb = 0.7;
    c.fault.voaLossProb = 0.7;
    expectRejected(c, "fault.voa_delay \\+ fault.voa_loss");
    c = SystemConfig{};
    c.fault.voaDelayFactor = 0.5;
    expectRejected(c, "fault.voa_delay_factor must be >= 1");
}

TEST(ConfigValidate, RejectsBadFaultScripting)
{
    SystemConfig c;
    c.fault.killLink = -7;
    expectRejected(c, "fault.kill_link must be a link index or -1");
    c = SystemConfig{};
    c.fault.retryBackoffBase = 64;
    c.fault.retryBackoffCap = 8;
    expectRejected(c, "fault.backoff_cap");
}

TEST(ConfigValidate, FaultDefaultsAreValid)
{
    SystemConfig c;
    c.fault.enabled = true;
    c.validate();
    c.fault.killLink = 0; // any non-negative index is fine here
    c.validate();
    SUCCEED();
}

TEST(ConfigValidate, RejectsZeroMetricsInterval)
{
    // A zero snapshot interval used to be accepted and silently meant
    // "no snapshots", aliasing the detached-sink path; now the
    // explicit way (don't attach a sink) is the only way.
    SystemConfig c;
    c.metricsIntervalCycles = 0;
    expectRejected(c, "trace.metrics_interval must be > 0");
}

TEST(ConfigValidate, ThermalDefaultsAreValid)
{
    SystemConfig c;
    c.thermal.enabled = true;
    c.validate();
    c.thermal.throttleC = 0.0; // throttle off, model on: legal
    c.validate();
    SUCCEED();
}

TEST(ConfigValidate, RejectsBadThermalParams)
{
    SystemConfig c;
    c.thermal.enabled = true;
    c.thermal.tauCycles = 0;
    expectRejected(c, "thermal.tau must be > 0");
    c = SystemConfig{};
    c.thermal.enabled = true;
    c.thermal.epochCycles = 0;
    expectRejected(c, "thermal.epoch must be > 0");
    c = SystemConfig{};
    c.thermal.enabled = true;
    c.thermal.subLeakMw = -1.0;
    expectRejected(c, "leakage.sub_mw must be >= 0");
    c = SystemConfig{};
    c.thermal.enabled = true;
    c.thermal.subTempSlopeC = 0.0;
    expectRejected(c, "leakage.sub_slope must be > 0");

    // Disabled thermal params are never inspected: garbage is fine.
    c = SystemConfig{};
    c.thermal.tauCycles = 0;
    c.validate();
    SUCCEED();
}

TEST(ConfigValidate, AcceptsThermalWithFaults)
{
    // Fault-attached links keep their power ledger rows, so the
    // thermal model sees them like any other link.
    SystemConfig c;
    c.thermal.enabled = true;
    c.fault.enabled = true;
    c.validate();
    SUCCEED();
}

TEST(ConfigValidate, ShardsZeroMeansAuto)
{
    SystemConfig c;
    EXPECT_EQ(c.shards, 0); // auto is the default
    c.validate();
    Config raw;
    raw.set("sim.shards", "0");
    EXPECT_EQ(SystemConfig::fromConfig(raw).shards, 0);
}

TEST(ConfigValidate, RejectsShardCountsTheFabricCannotUse)
{
    SystemConfig c;
    c.shards = -1;
    expectRejected(c, "sim.shards must be >= 0");
    // A PoeSystem built from it dies in validate() too.
    EXPECT_EXIT(PoeSystem{c}, ::testing::ExitedWithCode(1),
                "sim.shards must be >= 0");

    // A 2x2 mesh has four routers: a fifth shard would own none and
    // its worker would only spin. validate() dies before any worker
    // thread exists.
    c = SystemConfig{};
    c.meshX = 2;
    c.meshY = 2;
    c.shards = 4;
    c.validate();
    c.shards = 5;
    expectRejected(c, "sim.shards \\(5\\) exceeds the fabric's 4 routers");
}

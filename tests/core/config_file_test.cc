/**
 * @file
 * Tests that the shipped config files in configs/ parse into the
 * intended SystemConfigs — guarding the documented user entry points.
 */

#include <gtest/gtest.h>

#include <string>

#include "core/system_config.hh"

using namespace oenet;

namespace {

/** The repo's configs/ directory (tests/CMakeLists.txt passes it in,
 *  so the tests run from any build directory). */
const std::string kConfigsDir = OENET_CONFIGS_DIR;

} // namespace

TEST(ConfigFiles, PaperDefaultsMatchBuiltinDefaults)
{
    Config raw;
    raw.loadFile(kConfigsDir + "/paper_defaults.cfg");
    SystemConfig c = SystemConfig::fromConfig(raw);
    EXPECT_EQ(raw.unusedKeys(), std::vector<std::string>{})
        << "every key in the file must be one fromConfig reads";
    SystemConfig d; // built-in defaults
    EXPECT_EQ(c.meshX, d.meshX);
    EXPECT_EQ(c.clusterSize, d.clusterSize);
    EXPECT_EQ(c.numVcs, d.numVcs);
    EXPECT_EQ(c.bufferDepthPerPort, d.bufferDepthPerPort);
    EXPECT_EQ(c.scheme, d.scheme);
    EXPECT_DOUBLE_EQ(c.brMinGbps, d.brMinGbps);
    EXPECT_EQ(c.numLevels, d.numLevels);
    EXPECT_EQ(c.freqTransitionCycles, d.freqTransitionCycles);
    EXPECT_EQ(c.voltTransitionCycles, d.voltTransitionCycles);
    EXPECT_EQ(c.windowCycles, d.windowCycles);
    EXPECT_DOUBLE_EQ(c.policy.thLowUncongested,
                     d.policy.thLowUncongested);
    EXPECT_DOUBLE_EQ(c.policy.thHighCongested,
                     d.policy.thHighCongested);
    EXPECT_EQ(c.policy.slidingWindows, d.policy.slidingWindows);
}

TEST(ConfigFiles, AggressivePowerVariantParses)
{
    Config raw;
    raw.loadFile(kConfigsDir + "/aggressive_power.cfg");
    SystemConfig c = SystemConfig::fromConfig(raw);
    EXPECT_EQ(raw.unusedKeys(), std::vector<std::string>{})
        << "every key in the file must be one fromConfig reads";
    EXPECT_EQ(c.scheme, LinkScheme::kVcsel);
    EXPECT_DOUBLE_EQ(c.brMinGbps, 3.3);
    EXPECT_DOUBLE_EQ(c.policy.thHighUncongested, 0.65);
}

TEST(ConfigFiles, TestchipCalibrationLoads)
{
    Config raw;
    raw.set("link.calibration", kConfigsDir + "/testchip_example.cal");
    SystemConfig c = SystemConfig::fromConfig(raw);
    ASSERT_TRUE(c.measuredLevels.has_value());
    EXPECT_EQ(c.measuredLevels->numLevels(), 6);
    EXPECT_DOUBLE_EQ(c.measuredLevels->minBitRateGbps(), 5.1);
    EXPECT_DOUBLE_EQ(c.brMinGbps, 5.1);
    // The measured table must drive the network build.
    Network::Params p = c.networkParams();
    EXPECT_DOUBLE_EQ(p.levels.level(1).brGbps, 6.0);
}

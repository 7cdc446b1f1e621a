/** @file Tests for OpticalLink data path, stats, and power accounting. */

#include <gtest/gtest.h>

#include "link/link.hh"
#include "phy/power_ledger.hh"

using namespace oenet;

namespace {

Flit
makeFlit(int seq = 0)
{
    Flit f;
    f.packet = 1;
    f.seq = static_cast<std::uint16_t>(seq);
    f.len = 100;
    f.flags = seq == 0 ? Flit::kHeadFlag : 0;
    return f;
}

OpticalLink::Params
defaultParams()
{
    OpticalLink::Params p;
    p.scheme = LinkScheme::kVcsel;
    return p;
}

} // namespace

class LinkTest : public ::testing::Test
{
  protected:
    LinkTest()
        : levels_(BitrateLevelTable::linear(5.0, 10.0, 6)),
          link_("test", LinkKind::kInterRouter, levels_, defaultParams(),
                ledger_)
    {
    }

    BitrateLevelTable levels_;
    LinkPowerLedger ledger_{1};
    OpticalLink link_;
};

TEST_F(LinkTest, StartsAtMaxLevel)
{
    EXPECT_EQ(link_.currentLevel(), 5);
    EXPECT_DOUBLE_EQ(link_.currentBitRateGbps(), 10.0);
}

TEST_F(LinkTest, OneFlitPerCycleAtFullRate)
{
    EXPECT_TRUE(link_.canAccept(0));
    link_.accept(0, makeFlit(0));
    EXPECT_FALSE(link_.canAccept(0)); // serializing
    EXPECT_TRUE(link_.canAccept(1));
    link_.accept(1, makeFlit(1));
    EXPECT_TRUE(link_.canAccept(2));
}

TEST_F(LinkTest, ArrivalAfterSerializationPlusPropagation)
{
    link_.accept(0, makeFlit());
    // 1 cycle serialization + 1 cycle propagation.
    EXPECT_FALSE(link_.hasArrival(0));
    EXPECT_FALSE(link_.hasArrival(1));
    EXPECT_TRUE(link_.hasArrival(2));
}

TEST_F(LinkTest, FifoOrderPreserved)
{
    link_.accept(0, makeFlit(0));
    link_.accept(1, makeFlit(1));
    link_.accept(2, makeFlit(2));
    EXPECT_EQ(link_.popArrival(4).seq, 0);
    EXPECT_EQ(link_.popArrival(4).seq, 1);
    EXPECT_EQ(link_.popArrival(4).seq, 2);
    EXPECT_FALSE(link_.hasArrival(4));
}

TEST_F(LinkTest, InFlightCount)
{
    EXPECT_EQ(link_.inFlight(), 0);
    link_.accept(0, makeFlit());
    EXPECT_EQ(link_.inFlight(), 1);
    (void)link_.popArrival(2);
    EXPECT_EQ(link_.inFlight(), 0);
}

TEST_F(LinkTest, HalfRateAcceptsEveryOtherCycle)
{
    // Move to 5 Gb/s (2 cycles/flit). Transition first.
    link_.requestLevel(0, 0); // down several levels in one request
    Cycle done = 0 + 20 + 100 + 5; // freq switch + volt ramp
    ASSERT_FALSE(link_.transitionInProgress(done));
    EXPECT_DOUBLE_EQ(link_.currentBitRateGbps(), 5.0);

    Cycle t = done;
    ASSERT_TRUE(link_.canAccept(t));
    link_.accept(t, makeFlit(0));
    EXPECT_FALSE(link_.canAccept(t + 1));
    EXPECT_TRUE(link_.canAccept(t + 2));
}

TEST_F(LinkTest, LongRunThroughputMatchesRate)
{
    link_.requestLevel(0, 0); // 5 Gb/s
    Cycle start = 200;
    int sent = 0;
    for (Cycle t = start; t < start + 1000; t++) {
        if (link_.canAccept(t)) {
            link_.accept(t, makeFlit(sent));
            sent++;
        }
        while (link_.hasArrival(t))
            (void)link_.popArrival(t);
    }
    EXPECT_NEAR(sent, 500, 2); // 0.5 flits/cycle
}

TEST_F(LinkTest, WindowUtilization)
{
    link_.beginWindow(0);
    for (Cycle t = 0; t < 100; t++) {
        if (t % 2 == 0) { // 50% offered
            ASSERT_TRUE(link_.canAccept(t));
            link_.accept(t, makeFlit());
        }
        while (link_.hasArrival(t))
            (void)link_.popArrival(t);
    }
    EXPECT_NEAR(link_.windowUtilization(100), 0.5, 0.02);
    EXPECT_EQ(link_.windowFlits(), 50u);

    link_.beginWindow(100);
    EXPECT_EQ(link_.windowFlits(), 0u);
    EXPECT_NEAR(link_.windowUtilization(200), 0.0, 1e-9);
}

TEST_F(LinkTest, UtilizationIsCapacityNormalized)
{
    // At 5 Gb/s, sending every 2nd cycle is 100% of capacity.
    link_.requestLevel(0, 0);
    Cycle start = 200;
    link_.beginWindow(start);
    for (Cycle t = start; t < start + 100; t++) {
        if (link_.canAccept(t))
            link_.accept(t, makeFlit());
        while (link_.hasArrival(t))
            (void)link_.popArrival(t);
    }
    EXPECT_NEAR(link_.windowUtilization(start + 100), 1.0, 0.03);
}

TEST_F(LinkTest, PowerAtMaxMatchesModel)
{
    LinkPowerModel model(LinkScheme::kVcsel);
    EXPECT_NEAR(link_.powerMw(0), model.maxPowerMw(), 1e-9);
    EXPECT_NEAR(link_.maxPowerMw(), model.maxPowerMw(), 1e-9);
}

TEST_F(LinkTest, PowerDropsAtLowerLevel)
{
    double before = link_.powerMw(0);
    link_.requestLevel(0, 0);
    double after = link_.powerMw(300);
    EXPECT_LT(after, before * 0.25); // ~61/291
    EXPECT_NEAR(after, 61.25, 1e-6);
}

TEST_F(LinkTest, EnergyIntegralMatchesConstantPower)
{
    double p = link_.powerMw(0);
    double integral = link_.powerIntegralMwCycles(1000);
    EXPECT_NEAR(integral, p * 1000.0, 1e-6);
    EXPECT_NEAR(link_.energyMj(1000), p * 1000.0 * kSecondsPerCycle,
                1e-12);
}

TEST_F(LinkTest, OpticalScaleChangesDetectorPower)
{
    BitrateLevelTable levels = BitrateLevelTable::linear(5.0, 10.0, 6);
    OpticalLink::Params p;
    p.scheme = LinkScheme::kModulator;
    LinkPowerLedger ledger(1);
    OpticalLink link("mod", LinkKind::kInterRouter, levels, p, ledger);
    double full = link.powerMw(0);
    link.setOpticalScale(10, 0.25);
    EXPECT_LT(link.powerMw(10), full);
    EXPECT_DOUBLE_EQ(link.opticalScale(), 0.25);
}

TEST_F(LinkTest, CountersAccumulate)
{
    link_.accept(0, makeFlit(0));
    link_.accept(1, makeFlit(1));
    EXPECT_EQ(link_.totalFlits(), 2u);
    EXPECT_EQ(link_.numTransitions(), 0u);
    link_.requestLevel(10, 4);
    EXPECT_EQ(link_.numTransitions(), 1u);
}

TEST_F(LinkTest, KindAndName)
{
    EXPECT_EQ(link_.kind(), LinkKind::kInterRouter);
    EXPECT_EQ(link_.name(), "test");
    EXPECT_STREQ(linkKindName(LinkKind::kInjection), "injection");
    EXPECT_STREQ(linkKindName(LinkKind::kEjection), "ejection");
    EXPECT_STREQ(linkKindName(LinkKind::kInterRouter), "inter-router");
}

TEST(LinkInitialLevel, ConfigurableStart)
{
    BitrateLevelTable levels = BitrateLevelTable::linear(5.0, 10.0, 6);
    OpticalLink::Params p;
    p.initialLevel = 2;
    LinkPowerLedger ledger(1);
    OpticalLink link("init", LinkKind::kInjection, levels, p, ledger);
    EXPECT_EQ(link.currentLevel(), 2);
    EXPECT_DOUBLE_EQ(link.currentBitRateGbps(), 7.0);
}

TEST(LinkDeath, AcceptWhileSerializingPanics)
{
    BitrateLevelTable levels = BitrateLevelTable::linear(5.0, 10.0, 6);
    LinkPowerLedger ledger(1);
    OpticalLink link("x", LinkKind::kInjection, levels,
                     OpticalLink::Params{}, ledger);
    link.accept(0, makeFlit());
    EXPECT_DEATH(link.accept(0, makeFlit()), "serializing");
}

TEST(LinkDeath, PopWithoutArrivalPanics)
{
    BitrateLevelTable levels = BitrateLevelTable::linear(5.0, 10.0, 6);
    LinkPowerLedger ledger(1);
    OpticalLink link("x", LinkKind::kInjection, levels,
                     OpticalLink::Params{}, ledger);
    EXPECT_DEATH((void)link.popArrival(0), "nothing");
}

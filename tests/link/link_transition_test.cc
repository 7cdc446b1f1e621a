/**
 * @file
 * Tests for the bit-rate/voltage transition state machine
 * (Section 3.2.1) and the on/off gating extension.
 */

#include <gtest/gtest.h>

#include "link/link.hh"
#include "phy/power_ledger.hh"

using namespace oenet;

namespace {

Flit
makeFlit()
{
    Flit f;
    f.flags = Flit::kHeadFlag | Flit::kTailFlag;
    f.len = 1;
    return f;
}

} // namespace

class LinkTransitionTest : public ::testing::Test
{
  protected:
    LinkTransitionTest()
        : levels_(BitrateLevelTable::linear(5.0, 10.0, 6))
    {
        params_.scheme = LinkScheme::kVcsel;
        params_.freqTransitionCycles = 20;
        params_.voltTransitionCycles = 100;
        params_.initialLevel = 2;
        link_ = std::make_unique<OpticalLink>("t", LinkKind::kInterRouter,
                                              levels_, params_, ledger_);
    }

    BitrateLevelTable levels_;
    OpticalLink::Params params_;
    LinkPowerLedger ledger_{1};
    std::unique_ptr<OpticalLink> link_;
};

TEST_F(LinkTransitionTest, UpTransitionVoltageFirstLinkStaysUsable)
{
    // Section 3.2.1: voltage is pulled up before the frequency rises,
    // and the link functions during the voltage ramp.
    link_->requestLevel(0, 3);
    EXPECT_TRUE(link_->transitionInProgress(0));
    // During the 100-cycle voltage ramp the link accepts flits at the
    // OLD bit rate.
    EXPECT_DOUBLE_EQ(link_->currentBitRateGbps(), 7.0);
    EXPECT_TRUE(link_->canAccept(50));
    // During the 20-cycle frequency switch it is disabled.
    EXPECT_FALSE(link_->canAccept(105));
    EXPECT_FALSE(link_->canAccept(119));
    // Then stable at the new rate.
    EXPECT_TRUE(link_->canAccept(120));
    EXPECT_FALSE(link_->transitionInProgress(120));
    EXPECT_DOUBLE_EQ(link_->currentBitRateGbps(), 8.0);
}

TEST_F(LinkTransitionTest, DownTransitionFrequencyFirst)
{
    link_->requestLevel(0, 1);
    // Frequency switch first: disabled 20 cycles.
    EXPECT_FALSE(link_->canAccept(5));
    EXPECT_FALSE(link_->canAccept(19));
    // Voltage ramps down afterwards with the link running at the NEW
    // rate.
    EXPECT_TRUE(link_->canAccept(20));
    EXPECT_TRUE(link_->transitionInProgress(20)); // volt ramp continues
    EXPECT_DOUBLE_EQ(link_->currentBitRateGbps(), 6.0);
    EXPECT_FALSE(link_->transitionInProgress(120));
}

TEST_F(LinkTransitionTest, PowerDuringUpTransitionUsesTargetVoltage)
{
    LinkPowerModel model(LinkScheme::kVcsel);
    link_->requestLevel(0, 3);
    // During the voltage ramp: old rate (7 Gb/s), new voltage (1.44 V).
    double expected = model.powerMw(7.0, levels_.level(3).vddV);
    EXPECT_NEAR(link_->powerMw(50), expected, 1e-9);
}

TEST_F(LinkTransitionTest, PowerDuringDownRampUsesOldVoltage)
{
    LinkPowerModel model(LinkScheme::kVcsel);
    link_->requestLevel(0, 1);
    // During the volt ramp down: new rate, old (higher) voltage.
    double expected = model.powerMw(6.0, levels_.level(2).vddV);
    EXPECT_NEAR(link_->powerMw(50), expected, 1e-9);
}

TEST_F(LinkTransitionTest, ZeroDelaysResolveImmediately)
{
    OpticalLink::Params p = params_;
    p.freqTransitionCycles = 0;
    p.voltTransitionCycles = 0;
    OpticalLink link("z", LinkKind::kInterRouter, levels_, p, ledger_);
    link.requestLevel(10, 5);
    EXPECT_FALSE(link.transitionInProgress(10));
    EXPECT_DOUBLE_EQ(link.currentBitRateGbps(), 10.0);
    link.requestLevel(11, 0);
    EXPECT_FALSE(link.transitionInProgress(11));
    EXPECT_DOUBLE_EQ(link.currentBitRateGbps(), 5.0);
}

TEST_F(LinkTransitionTest, OnlyFreqDelayDisablesLink)
{
    // T_v = 0: up transitions go straight to the frequency switch.
    OpticalLink::Params p = params_;
    p.voltTransitionCycles = 0;
    OpticalLink link("f", LinkKind::kInterRouter, levels_, p, ledger_);
    link.requestLevel(0, 3);
    EXPECT_FALSE(link.canAccept(10));
    EXPECT_TRUE(link.canAccept(20));
    EXPECT_FALSE(link.transitionInProgress(20));
}

TEST_F(LinkTransitionTest, InFlightFlitsDeliverAcrossTransition)
{
    ASSERT_TRUE(link_->canAccept(0));
    link_->accept(0, makeFlit());
    link_->requestLevel(0, 1); // down: disabled immediately
    // The flit accepted at cycle 0 still arrives.
    EXPECT_TRUE(link_->hasArrival(10));
    (void)link_->popArrival(10);
}

TEST_F(LinkTransitionTest, RequestSameLevelIsNoOp)
{
    link_->requestLevel(0, 2);
    EXPECT_FALSE(link_->transitionInProgress(0));
    EXPECT_EQ(link_->numTransitions(), 0u);
}

TEST_F(LinkTransitionTest, CapacityIntegralExcludesDisabledTime)
{
    // Utilization accounting must not count the dead T_br window as
    // available capacity.
    link_->beginWindow(0);
    link_->requestLevel(0, 1); // down: 20 dead cycles, then 6 Gb/s
    // Send nothing; utilization must be exactly 0 either way.
    EXPECT_DOUBLE_EQ(link_->windowUtilization(200), 0.0);

    // Saturate from 20 to 220 at the new rate (0.6 flits/cycle).
    Cycle start = 20;
    link_->beginWindow(start);
    for (Cycle t = start; t < start + 200; t++) {
        if (link_->canAccept(t))
            link_->accept(t, makeFlit());
        while (link_->hasArrival(t))
            (void)link_->popArrival(t);
    }
    EXPECT_NEAR(link_->windowUtilization(start + 200), 1.0, 0.03);
}

TEST_F(LinkTransitionTest, TransitionCountsAccumulate)
{
    link_->requestLevel(0, 3);
    link_->requestLevel(200, 2);
    EXPECT_EQ(link_->numTransitions(), 2u);
}

TEST_F(LinkTransitionTest, OffGatingStopsTrafficAndCutsPower)
{
    double active = link_->powerMw(0);
    link_->setOff(10, true);
    EXPECT_TRUE(link_->isOff());
    EXPECT_FALSE(link_->canAccept(11));
    EXPECT_NEAR(link_->powerMw(11), params_.offPowerMw, 1e-9);
    EXPECT_LT(link_->powerMw(11), active / 10.0);
}

TEST_F(LinkTransitionTest, WakeupPaysRelock)
{
    link_->setOff(0, true);
    link_->setOff(1000, false);
    EXPECT_FALSE(link_->isOff());
    EXPECT_FALSE(link_->canAccept(1010)); // relocking
    EXPECT_TRUE(link_->canAccept(1020));
    EXPECT_EQ(link_->currentLevel(), 2); // level preserved across off
}

TEST_F(LinkTransitionTest, WakeWhenNotOffIsNoOp)
{
    link_->setOff(5, false);
    EXPECT_FALSE(link_->isOff());
    EXPECT_EQ(link_->numTransitions(), 0u);
}

TEST_F(LinkTransitionTest, OffStateEnergyIntegration)
{
    link_->setOff(0, true);
    double integral = link_->powerIntegralMwCycles(1000);
    EXPECT_NEAR(integral, params_.offPowerMw * 1000.0, 1e-6);
}

TEST(LinkTransitionDeath, RequestDuringTransitionPanics)
{
    auto levels = BitrateLevelTable::linear(5.0, 10.0, 6);
    OpticalLink::Params p;
    p.initialLevel = 2;
    LinkPowerLedger ledger(1);
    OpticalLink link("d", LinkKind::kInterRouter, levels, p, ledger);
    link.requestLevel(0, 3);
    EXPECT_DEATH(link.requestLevel(5, 4), "transition");
}

TEST(LinkTransitionDeath, SetOffDuringTransitionPanics)
{
    auto levels = BitrateLevelTable::linear(5.0, 10.0, 6);
    OpticalLink::Params p;
    p.initialLevel = 2;
    LinkPowerLedger ledger(1);
    OpticalLink link("d", LinkKind::kInterRouter, levels, p, ledger);
    link.requestLevel(0, 3);
    EXPECT_DEATH(link.setOff(5, true), "transition");
}

/** @file Tests for the on/off link controller extension. */

#include <gtest/gtest.h>

#include "phy/power_ledger.hh"
#include "policy/on_off.hh"

using namespace oenet;

class OnOffTest : public ::testing::Test
{
  protected:
    OnOffTest() : levels_(BitrateLevelTable::linear(5.0, 10.0, 6))
    {
        OpticalLink::Params lp;
        link_ = std::make_unique<OpticalLink>("l", LinkKind::kInterRouter,
                                              levels_, lp, ledger_);
    }

    OnOffController::Params params()
    {
        OnOffController::Params p;
        p.offThreshold = 0.05;
        p.slidingWindows = 2;
        return p;
    }

    BitrateLevelTable levels_;
    LinkPowerLedger ledger_{1};
    std::unique_ptr<OpticalLink> link_;
    bool waiting_ = false;
};

TEST_F(OnOffTest, IdleLinkTurnsOff)
{
    OnOffController c(*link_, [this] { return waiting_; }, params());
    link_->beginWindow(0);
    c.onWindow(1000);
    c.onWindow(2000);
    EXPECT_TRUE(link_->isOff());
    EXPECT_EQ(c.sleeps(), 1u);
}

TEST_F(OnOffTest, BusyLinkStaysOn)
{
    OnOffController c(*link_, [this] { return waiting_; }, params());
    link_->beginWindow(0);
    Flit f;
    f.flags = Flit::kHeadFlag | Flit::kTailFlag;
    for (Cycle t = 0; t < 1000; t += 2) {
        if (link_->canAccept(t))
            link_->accept(t, f);
        while (link_->hasArrival(t))
            (void)link_->popArrival(t);
    }
    c.onWindow(1000);
    EXPECT_FALSE(link_->isOff());
    EXPECT_EQ(c.sleeps(), 0u);
}

TEST_F(OnOffTest, PendingWorkBlocksSleep)
{
    waiting_ = true;
    OnOffController c(*link_, [this] { return waiting_; }, params());
    link_->beginWindow(0);
    c.onWindow(1000);
    EXPECT_FALSE(link_->isOff());
}

TEST_F(OnOffTest, WakesWhenWorkArrives)
{
    OnOffController c(*link_, [this] { return waiting_; }, params());
    link_->beginWindow(0);
    c.onWindow(1000);
    ASSERT_TRUE(link_->isOff());
    waiting_ = true;
    c.maybeWake(1500);
    EXPECT_FALSE(link_->isOff());
    EXPECT_EQ(c.wakes(), 1u);
    // Wakeup pays the CDR relock: usable 20 cycles later.
    EXPECT_FALSE(link_->canAccept(1510));
    EXPECT_TRUE(link_->canAccept(1520));
}

TEST_F(OnOffTest, OffLinkDrawsLeakageOnly)
{
    OnOffController c(*link_, [this] { return waiting_; }, params());
    link_->beginWindow(0);
    c.onWindow(1000);
    ASSERT_TRUE(link_->isOff());
    EXPECT_NEAR(link_->powerMw(2000), link_->params().offPowerMw, 1e-9);
}

TEST_F(OnOffTest, MaybeWakeNoOpWhenQuiet)
{
    OnOffController c(*link_, [this] { return waiting_; }, params());
    c.maybeWake(10);
    EXPECT_EQ(c.wakes(), 0u);
    EXPECT_FALSE(link_->isOff());
}

/**
 * @file
 * Parameterized property sweeps over OpticalLink: for every level of
 * both standard tables and both schemes, the link's realized
 * throughput, power ordering, and transition energy accounting must
 * hold exactly.
 */

#include <gtest/gtest.h>

#include <tuple>

#include "link/link.hh"
#include "phy/power_ledger.hh"

using namespace oenet;

namespace {

Flit
flit()
{
    Flit f;
    f.flags = Flit::kHeadFlag | Flit::kTailFlag;
    f.len = 1;
    return f;
}

} // namespace

// Parameter: (scheme, brMin, level index).
class LinkLevelProperty
    : public ::testing::TestWithParam<std::tuple<int, double, int>>
{
  protected:
    LinkLevelProperty()
        : levels_(BitrateLevelTable::linear(std::get<1>(GetParam()),
                                            10.0, 6))
    {
        params_.scheme = std::get<0>(GetParam()) == 0
                             ? LinkScheme::kVcsel
                             : LinkScheme::kModulator;
        params_.initialLevel = std::get<2>(GetParam());
        link_ = std::make_unique<OpticalLink>(
            "prop", LinkKind::kInterRouter, levels_, params_, ledger_);
    }

    BitrateLevelTable levels_;
    OpticalLink::Params params_;
    LinkPowerLedger ledger_{1};
    std::unique_ptr<OpticalLink> link_;
};

TEST_P(LinkLevelProperty, SaturatedThroughputMatchesBitRate)
{
    int level = std::get<2>(GetParam());
    double expected = flitsPerCycle(levels_.level(level).brGbps);
    int sent = 0;
    const Cycle n = 3000;
    for (Cycle t = 0; t < n; t++) {
        if (link_->canAccept(t)) {
            link_->accept(t, flit());
            sent++;
        }
        while (link_->hasArrival(t))
            (void)link_->popArrival(t);
    }
    EXPECT_NEAR(static_cast<double>(sent) / static_cast<double>(n),
                expected, 0.01)
        << "level " << level;
}

TEST_P(LinkLevelProperty, PowerOrderedByLevel)
{
    int level = std::get<2>(GetParam());
    double here = link_->powerMw(0);
    if (level > 0) {
        OpticalLink::Params lower = params_;
        lower.initialLevel = level - 1;
        OpticalLink other("lower", LinkKind::kInterRouter, levels_,
                          lower, ledger_);
        EXPECT_GT(here, other.powerMw(0));
    }
    EXPECT_GT(here, 0.0);
    EXPECT_LE(here, link_->maxPowerMw() + 1e-9);
}

TEST_P(LinkLevelProperty, UtilizationSaturatesAtOne)
{
    link_->beginWindow(0);
    for (Cycle t = 0; t < 2000; t++) {
        if (link_->canAccept(t))
            link_->accept(t, flit());
        while (link_->hasArrival(t))
            (void)link_->popArrival(t);
    }
    EXPECT_NEAR(link_->windowUtilization(2000), 1.0, 0.02);
}

TEST_P(LinkLevelProperty, RoundTripTransitionRestoresState)
{
    int level = std::get<2>(GetParam());
    int other = level == 0 ? levels_.maxLevel() : 0;
    double p_before = link_->powerMw(0);
    link_->requestLevel(0, other);
    Cycle settle = 1000;
    ASSERT_FALSE(link_->transitionInProgress(settle));
    link_->requestLevel(settle, level);
    Cycle done = settle + 1000;
    ASSERT_FALSE(link_->transitionInProgress(done));
    EXPECT_EQ(link_->currentLevel(), level);
    EXPECT_NEAR(link_->powerMw(done), p_before, 1e-9);
    EXPECT_EQ(link_->numTransitions(), 2u);
}

TEST_P(LinkLevelProperty, EnergyIntegralIsMonotone)
{
    double e1 = link_->powerIntegralMwCycles(100);
    link_->requestLevel(100, std::get<2>(GetParam()) == 0
                                 ? levels_.maxLevel()
                                 : 0);
    double e2 = link_->powerIntegralMwCycles(500);
    double e3 = link_->powerIntegralMwCycles(2000);
    EXPECT_GT(e2, e1);
    EXPECT_GT(e3, e2);
}

INSTANTIATE_TEST_SUITE_P(
    SchemesRangesLevels, LinkLevelProperty,
    ::testing::Combine(::testing::Values(0, 1),
                       ::testing::Values(5.0, 3.3),
                       ::testing::Values(0, 1, 2, 3, 4, 5)));

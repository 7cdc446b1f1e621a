/** @file Tests for the network power/utilization reporting. */

#include <gtest/gtest.h>

#include "network/power_report.hh"

using namespace oenet;

namespace {

Network::Params
smallParams()
{
    Network::Params p;
    p.topo.meshX = 2;
    p.topo.meshY = 2;
    p.topo.clusterSize = 2;
    return p;
}

} // namespace

TEST(PowerReport, CountsMatchTopology)
{
    Kernel kernel;
    Network net(kernel, smallParams());
    PowerReport r = makePowerReport(net, 0);
    EXPECT_EQ(r.forKind(LinkKind::kInjection).count, 8);
    EXPECT_EQ(r.forKind(LinkKind::kEjection).count, 8);
    EXPECT_EQ(r.forKind(LinkKind::kInterRouter).count, 8);
}

TEST(PowerReport, AllAtMaxEqualsBaseline)
{
    Kernel kernel;
    Network net(kernel, smallParams());
    PowerReport r = makePowerReport(net, 0);
    EXPECT_NEAR(r.totalPowerMw, r.baselinePowerMw, 1e-6);
    EXPECT_NEAR(r.normalizedPower, 1.0, 1e-9);
    for (const auto &kr : r.byKind) {
        EXPECT_NEAR(kr.normalizedPower, 1.0, 1e-9);
        EXPECT_DOUBLE_EQ(kr.meanLevel, 5.0);
        // All links sit in the top-level bin.
        EXPECT_EQ(kr.levelHistogram.back(), kr.count);
    }
}

TEST(PowerReport, ReflectsScaledLinks)
{
    Kernel kernel;
    Network net(kernel, smallParams());
    // Scale all injection links to the bottom.
    for (std::size_t i = 0; i < net.numLinks(); i++) {
        if (net.linkSpec(i).kind == LinkKind::kInjection)
            net.link(i).requestLevel(0, 0);
    }
    kernel.run(200); // let transitions finish
    PowerReport r = makePowerReport(net, kernel.now());
    const auto &inj = r.forKind(LinkKind::kInjection);
    EXPECT_LT(inj.normalizedPower, 0.3);
    EXPECT_DOUBLE_EQ(inj.meanLevel, 0.0);
    EXPECT_EQ(inj.levelHistogram.front(), inj.count);
    EXPECT_NEAR(r.forKind(LinkKind::kEjection).normalizedPower, 1.0,
                1e-9);
    EXPECT_LT(r.normalizedPower, 1.0);
}

TEST(PowerReport, TotalsAreSumOfKinds)
{
    Kernel kernel;
    Network net(kernel, smallParams());
    net.link(0).requestLevel(0, 2);
    kernel.run(300);
    PowerReport r = makePowerReport(net, kernel.now());
    double sum = 0.0;
    for (const auto &kr : r.byKind)
        sum += kr.powerMw;
    EXPECT_NEAR(sum, r.totalPowerMw, 1e-6);
}

TEST(PowerReport, ToStringMentionsEveryKind)
{
    Kernel kernel;
    Network net(kernel, smallParams());
    std::string s = makePowerReport(net, 0).toString();
    EXPECT_NE(s.find("injection"), std::string::npos);
    EXPECT_NE(s.find("ejection"), std::string::npos);
    EXPECT_NE(s.find("inter-router"), std::string::npos);
}

TEST(PowerReport, HistogramsSizedByMaxLevelAndSumToCount)
{
    Kernel kernel;
    Network net(kernel, smallParams());
    PowerReport r = makePowerReport(net, 0);
    std::size_t bins =
        static_cast<std::size_t>(net.levels().maxLevel()) + 1;
    for (const auto &kr : r.byKind) {
        ASSERT_EQ(kr.levelHistogram.size(), bins);
        int sum = 0;
        for (int b : kr.levelHistogram)
            sum += b;
        EXPECT_EQ(sum, kr.count);
    }
}

TEST(PowerReport, MeanLevelAveragesMixedLevels)
{
    Kernel kernel;
    Network net(kernel, smallParams());
    // Half the injection links to level 1, half stay at 5.
    int moved = 0;
    for (std::size_t i = 0; i < net.numLinks(); i++) {
        if (net.linkSpec(i).kind == LinkKind::kInjection && moved < 4) {
            net.link(i).requestLevel(0, 1);
            moved++;
        }
    }
    kernel.run(300); // let transitions finish
    PowerReport r = makePowerReport(net, kernel.now());
    const auto &inj = r.forKind(LinkKind::kInjection);
    EXPECT_DOUBLE_EQ(inj.meanLevel, (4 * 1 + 4 * 5) / 8.0);
    EXPECT_EQ(inj.levelHistogram[1], 4);
    EXPECT_EQ(inj.levelHistogram[5], 4);
}

TEST(PowerReport, KindWithNoLinksKeepsNormalizedPowerZero)
{
    // A 1x1 mesh has no inter-router links: the count-0 guard must
    // keep that kind's normalizedPower/meanLevel at 0 instead of 0/0.
    Network::Params p;
    p.topo.meshX = 1;
    p.topo.meshY = 1;
    p.topo.clusterSize = 1;
    Kernel kernel;
    Network net(kernel, p);
    PowerReport r = makePowerReport(net, 0);
    const auto &ir = r.forKind(LinkKind::kInterRouter);
    EXPECT_EQ(ir.count, 0);
    EXPECT_DOUBLE_EQ(ir.baselineMw, 0.0);
    EXPECT_DOUBLE_EQ(ir.normalizedPower, 0.0);
    EXPECT_DOUBLE_EQ(ir.meanLevel, 0.0);
    // The network still has injection/ejection links, so the whole-
    // system ratio is well defined.
    EXPECT_GT(r.baselinePowerMw, 0.0);
    EXPECT_NEAR(r.normalizedPower, 1.0, 1e-9);
    // toString skips the empty kind entirely.
    EXPECT_EQ(r.toString().find("inter-router"), std::string::npos);
}

TEST(PowerReport, LinkRowsReflectTransitionsAndFlitCounters)
{
    Kernel kernel;
    Network net(kernel, smallParams());
    net.link(0).requestLevel(0, 4);
    kernel.run(300);
    auto rows = collectLinkRows(net, kernel.now());
    EXPECT_EQ(rows[0].transitions, 1u);
    EXPECT_EQ(rows[0].level, 4);
    // resetStats clears the cumulative counters the rows report.
    net.resetStats(kernel.now());
    rows = collectLinkRows(net, kernel.now());
    EXPECT_EQ(rows[0].transitions, 0u);
    EXPECT_EQ(rows[0].totalFlits, 0u);
}

TEST(PowerReport, ThermalReportPopulatesLeakageFields)
{
    Network::Params p = smallParams();
    p.thermal.enabled = true;
    Kernel kernel;
    Network net(kernel, p);
    kernel.run(5 * p.thermal.epochCycles);

    PowerReport r = makePowerReport(net, kernel.now());
    EXPECT_TRUE(r.thermal);
    EXPECT_GT(r.leakagePowerMw, 0.0);
    // Effective power = dynamic + leakage, so the total exceeds the
    // all-at-max *dynamic* baseline.
    EXPECT_GT(r.totalPowerMw, r.baselinePowerMw);
    // Idle-but-powered links heat above ambient within a few epochs.
    EXPECT_GT(r.maxTempC, p.thermal.ambientC);
    EXPECT_LT(r.maxTempC, 100.0);
    EXPECT_EQ(r.vcEnergyMwCycles.size(),
              static_cast<std::size_t>(p.router.numVcs));
    for (const auto &kr : r.byKind)
        EXPECT_GT(kr.leakageMw, 0.0);

    auto rows = collectLinkRows(net, kernel.now());
    for (const auto &row : rows) {
        EXPECT_GT(row.leakageMw, 0.0);
        EXPECT_GT(row.tempC, p.thermal.ambientC);
        EXPECT_EQ(row.vcFlits.size(),
                  static_cast<std::size_t>(p.router.numVcs));
    }
}

TEST(PowerReport, LinkRowsCoverAllLinks)
{
    Kernel kernel;
    Network net(kernel, smallParams());
    auto rows = collectLinkRows(net, 0);
    ASSERT_EQ(rows.size(), net.numLinks());
    for (std::size_t i = 0; i < rows.size(); i++) {
        EXPECT_EQ(rows[i].name, net.link(i).name());
        EXPECT_EQ(rows[i].level, 5);
        EXPECT_DOUBLE_EQ(rows[i].brGbps, 10.0);
        EXPECT_GT(rows[i].powerMw, 0.0);
    }
}

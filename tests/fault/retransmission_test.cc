/**
 * @file
 * Link-layer reliability on a single OpticalLink: CRC-failure
 * retransmission, in-order delivery, lock-loss outages, hard failure,
 * and determinism of the whole machinery.
 */

#include <vector>

#include <gtest/gtest.h>

#include "fault/fault_injector.hh"
#include "link/link.hh"
#include "phy/power_ledger.hh"

using namespace oenet;

namespace {

struct Pump
{
    BitrateLevelTable levels = BitrateLevelTable::linear(5.0, 10.0, 6);
    LinkPowerLedger ledger{1};
    OpticalLink link;
    FaultInjector injector;

    Pump(const FaultParams &fp, OpticalLink::Params lp = {})
        : link("pump", LinkKind::kInterRouter, levels, lp, ledger),
          injector(fp, 1)
    {
        link.setFault(&injector, 0);
    }

    /** Push @p total flits through the link, cycle by cycle, popping
     *  arrivals as they land. Returns (seq, cycle) of each arrival in
     *  pop order. */
    std::vector<std::pair<std::uint16_t, Cycle>>
    run(int total, Cycle horizon)
    {
        std::vector<std::pair<std::uint16_t, Cycle>> out;
        int sent = 0;
        for (Cycle now = 0; now < horizon; now++) {
            if (sent < total && link.canAccept(now)) {
                Flit f;
                f.packet = 1;
                f.seq = static_cast<std::uint16_t>(sent);
                f.len = static_cast<std::uint16_t>(total);
                link.accept(now, f);
                sent++;
            }
            while (link.hasArrival(now))
                out.emplace_back(link.popArrival(now).seq, now);
        }
        return out;
    }
};

FaultParams
corruptingParams(double ber_floor)
{
    FaultParams p;
    p.enabled = true;
    p.seed = 99;
    p.berScale = 0.0; // isolate the floor from the margin physics
    p.berFloor = ber_floor;
    return p;
}

} // namespace

TEST(Retransmission, CleanLinkNeverRetries)
{
    Pump pump(corruptingParams(0.0));
    auto got = pump.run(200, 2000);
    EXPECT_EQ(got.size(), 200u);
    EXPECT_EQ(pump.link.flitsCorrupted(), 0u);
    EXPECT_EQ(pump.link.flitRetries(), 0u);
}

TEST(Retransmission, CorruptedFlitsAreReplayedInOrder)
{
    Pump pump(corruptingParams(0.01)); // ~15% per 16-bit flit
    const int total = 300;
    auto got = pump.run(total, 20000);

    ASSERT_EQ(got.size(), static_cast<std::size_t>(total))
        << "every flit must eventually be delivered";
    for (int i = 0; i < total; i++)
        EXPECT_EQ(got[static_cast<std::size_t>(i)].first, i)
            << "delivery must preserve wormhole flit order";
    EXPECT_GT(pump.link.flitsCorrupted(), 0u);
    EXPECT_GT(pump.link.flitRetries(), 0u);
    // Every corruption triggers exactly one replay attempt (a replay
    // may itself corrupt and retry again).
    EXPECT_EQ(pump.link.flitRetries(), pump.link.flitsCorrupted());
}

TEST(Retransmission, RetriesCostLatencyNotFlits)
{
    Pump clean(corruptingParams(0.0));
    Pump noisy(corruptingParams(0.02));
    auto a = clean.run(200, 30000);
    auto b = noisy.run(200, 30000);
    ASSERT_EQ(a.size(), 200u);
    ASSERT_EQ(b.size(), 200u);
    // Same flits delivered; the noisy link finishes strictly later.
    EXPECT_GT(b.back().second, a.back().second);
}

TEST(Retransmission, DeterministicAcrossRuns)
{
    auto once = []() {
        Pump pump(corruptingParams(0.01));
        auto got = pump.run(250, 20000);
        return std::make_tuple(got, pump.link.flitRetries(),
                               pump.link.flitsCorrupted());
    };
    auto a = once();
    auto b = once();
    EXPECT_EQ(std::get<0>(a), std::get<0>(b));
    EXPECT_EQ(std::get<1>(a), std::get<1>(b));
    EXPECT_EQ(std::get<2>(a), std::get<2>(b));
}

TEST(Retransmission, WindowRetriesResetAtBeginWindow)
{
    Pump pump(corruptingParams(0.02));
    (void)pump.run(300, 20000);
    EXPECT_GT(pump.link.windowRetries(), 0u);
    pump.link.beginWindow(20000);
    EXPECT_EQ(pump.link.windowRetries(), 0u);
    // The cumulative counter is untouched by the window reset.
    EXPECT_GT(pump.link.flitRetries(), 0u);
}

TEST(LockLoss, OutagesAreCountedAndRecovered)
{
    FaultParams p;
    p.enabled = true;
    p.seed = 7;
    p.lockLossPerCycle = 0.005;
    p.lockLossOutageCycles = 25;
    Pump pump(p);
    auto got = pump.run(400, 40000);
    EXPECT_EQ(got.size(), 400u) << "outages delay, never drop";
    EXPECT_GT(pump.link.lockLossEvents(), 0u);
    for (std::size_t i = 0; i < got.size(); i++)
        ASSERT_EQ(got[i].first, static_cast<std::uint16_t>(i));
}

TEST(HardFail, KillDropsInFlightAndClosesTheLink)
{
    FaultParams p;
    p.enabled = true;
    p.seed = 5;
    p.killLink = 0;
    p.killCycle = 40;
    OpticalLink::Params lp;
    lp.propagationCycles = 30; // keep flits in flight across the kill
    Pump pump(p, lp);

    int accepted = 0;
    for (Cycle now = 0; now < 39; now++) {
        if (pump.link.canAccept(now)) {
            Flit f;
            f.seq = static_cast<std::uint16_t>(accepted++);
            pump.link.accept(now, f);
        }
        while (pump.link.hasArrival(now))
            (void)pump.link.popArrival(now);
    }
    ASSERT_GT(pump.link.inFlight(), 0);

    // Touch the link past the kill cycle: the failure is discovered,
    // in-flight flits are gone, and the link never accepts again.
    EXPECT_FALSE(pump.link.canAccept(100));
    EXPECT_TRUE(pump.link.isFailed());
    EXPECT_EQ(pump.link.inFlight(), 0);
    EXPECT_GT(pump.link.flitsDroppedOnFail(), 0u);
    EXPECT_FALSE(pump.link.hasArrival(1000));
    EXPECT_FALSE(pump.link.canAccept(100000));
}

TEST(HardFail, FailedLinkReportsOffPower)
{
    FaultParams p;
    p.enabled = true;
    p.seed = 5;
    p.killLink = 0;
    p.killCycle = 10;
    OpticalLink::Params lp;
    lp.offPowerMw = 1.25;
    Pump pump(p, lp);
    EXPECT_FALSE(pump.link.canAccept(50));
    EXPECT_DOUBLE_EQ(pump.link.powerMw(60), 1.25);
}

/**
 * @file
 * Link-layer reliability on a single OpticalLink: CRC-failure
 * retransmission, in-order delivery, lock-loss outages, hard failure,
 * and determinism of the whole machinery.
 */

#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "fault/fault_injector.hh"
#include "link/link.hh"
#include "phy/power_ledger.hh"
#include "trace/trace_sinks.hh"

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

namespace {

/** How a receiver polls a faulted link. */
enum class Poll
{
    kWalkEveryCycle, ///< hasArrival/popArrival: the full walk each cycle
    kDrainEveryCycle, ///< drainArrivalsDue each cycle (skips internally)
    kDrainWhenDue,    ///< only when nextReceiverEventCycle() <= now
};

/** Everything a faulted link's receiver can observe, for one run. */
struct TwinResult
{
    std::vector<std::pair<std::uint16_t, Cycle>> pops;
    std::vector<std::uint64_t> counters;
    std::vector<double> integrals; ///< ledger reads, then the final one
    std::vector<std::uint64_t> windowRetries; ///< per 200-cycle window
    std::vector<std::streamoff> traceLen; ///< bytes emitted, per cycle
    std::string trace;
};

/**
 * One faulted link through lock losses, a BER floor, a DVS
 * up-then-down transition, a gate-off/wake with its settle step and a
 * scripted kill. The sender only works in the first 600 cycles of
 * every 1000, and the controller acts in the idle rest, so phase
 * ends and the wake-settle power step fall on cycles only the
 * receiver touches the link. Power snapshots every 500 cycles read
 * the ledger the way Network::advancePendingPower does: advance the
 * link first if its row is pending. The trace length after every
 * cycle and the retries of every 200-cycle DVS window pin *when* the
 * walk ran, not only what it produced.
 */
TwinResult
runTwin(Poll poll)
{
    FaultParams fp;
    fp.enabled = true;
    fp.seed = 31;
    fp.berFloor = 1e-3;
    fp.lockLossPerCycle = 1e-3;
    fp.killLink = 0;
    fp.killCycle = 8300;
    OpticalLink::Params lp;
    lp.initialLevel = 2;
    lp.propagationCycles = 3;

    BitrateLevelTable levels = BitrateLevelTable::linear(5.0, 10.0, 6);
    LinkPowerLedger ledger(1);
    OpticalLink link("twin", LinkKind::kInterRouter, levels, lp, ledger);
    FaultInjector injector(fp, 1);
    std::ostringstream os;
    TwinResult r;
    {
        JsonlTraceSink sink(os);
        link.setTrace(&sink, 0);
        link.setFault(&injector, 0);
        int sent = 0;
        auto record = [&](const Flit &f, Cycle now) {
            r.pops.emplace_back(f.seq, now);
        };
        for (Cycle now = 0; now < 9000; now++) {
            bool idle = now % 1000 >= 600;
            if (!idle && link.canAccept(now)) {
                Flit f;
                f.seq = static_cast<std::uint16_t>(sent++);
                link.accept(now, f);
            }
            auto act = [&](Cycle at, auto &&fn) {
                if (now == at && !link.transitionInProgress(now))
                    fn();
            };
            act(1650, [&] { link.requestLevel(now, 4); });
            act(3650, [&] { link.requestLevel(now, 1); });
            act(5650, [&] { link.setOff(now, true); });
            if (now == 5800)
                link.setOff(now, false);

            switch (poll) {
              case Poll::kWalkEveryCycle:
                while (link.hasArrival(now))
                    record(link.popArrival(now), now);
                break;
              case Poll::kDrainEveryCycle:
                link.drainArrivalsDue(
                    now, [&](const Flit &f) { record(f, now); });
                break;
              case Poll::kDrainWhenDue:
                if (link.nextReceiverEventCycle() <= now) {
                    link.drainArrivalsDue(
                        now, [&](const Flit &f) { record(f, now); });
                }
                break;
            }
            if (now % 500 == 0 && ledger.isPending(0))
                r.integrals.push_back(link.powerIntegralMwCycles(now));
            if (now % 200 == 199) {
                r.windowRetries.push_back(link.windowRetries());
                link.beginWindow(now);
            }
            r.traceLen.push_back(os.tellp());
        }
        r.integrals.push_back(link.powerIntegralMwCycles(9000));
        link.setTrace(nullptr, kInvalid);
    }
    r.trace = os.str();
    r.counters = {link.flitsCorrupted(),     link.flitRetries(),
                  link.lockLossEvents(),     link.flitsDroppedOnFail(),
                  link.windowRetries(),      link.numTransitions(),
                  link.totalFlits(),
                  link.isFailed() ? 1u : 0u};
    return r;
}

} // namespace

TEST(FaultHorizon, SkippedPollsMatchEveryCycleWalk)
{
    TwinResult ref = runTwin(Poll::kWalkEveryCycle);
    // The scenario reaches every fault path it is meant to.
    ASSERT_GT(ref.counters[0], 0u) << "no corruption";
    ASSERT_GT(ref.counters[2], 0u) << "no lock loss";
    ASSERT_GT(ref.counters[3], 0u) << "kill dropped nothing in flight";
    ASSERT_EQ(ref.counters[7], 1u) << "scripted kill missing";
    for (const char *kind : {"\"kind\": \"level\"", "\"kind\": \"off\"",
                             "\"kind\": \"wake\"", "\"lock_loss\"",
                             "\"retry\"", "\"hard_fail\""})
        ASSERT_NE(ref.trace.find(kind), std::string::npos) << kind;

    for (Poll poll : {Poll::kDrainEveryCycle, Poll::kDrainWhenDue}) {
        TwinResult got = runTwin(poll);
        EXPECT_EQ(got.pops, ref.pops);
        EXPECT_EQ(got.counters, ref.counters);
        EXPECT_EQ(got.trace, ref.trace);
        EXPECT_EQ(got.traceLen, ref.traceLen);
        EXPECT_EQ(got.windowRetries, ref.windowRetries);
        // Bitwise: the folds land at the same stamps in the same order.
        EXPECT_EQ(got.integrals, ref.integrals);
    }
}

/**
 * @file
 * Tests for the idle-elision scheduler: the kernel's sleep/wake
 * protocol on stub components, the quiescence invariants of the real
 * system (idle PoeSystem parks everything; injection wakes exactly the
 * path that needs to move), and a randomized soak asserting that
 * elision-on and elision-off runs emit byte-identical trace streams
 * and identical metrics — the property the CI cmp checks enforce at
 * bench scale.
 */

#include <gtest/gtest.h>

#include <sstream>
#include <string>
#include <vector>

#include "core/experiment.hh"
#include "sim/kernel.hh"
#include "trace/trace_sinks.hh"

using namespace oenet;

namespace {

/** Ticking stub whose wake policy is a per-test knob. */
class Sleeper : public Ticking
{
  public:
    std::vector<Cycle> ticks;
    Cycle wake = kNeverCycle; ///< absolute cycle returned by nextWakeCycle
    std::vector<int> *log = nullptr;
    int id = 0;

    void tick(Cycle now) override
    {
        ticks.push_back(now);
        if (log)
            log->push_back(id);
    }
    Cycle nextWakeCycle(Cycle now) override
    {
        // One-shot alarm: once the armed cycle has been reached the
        // stub has no further work and parks indefinitely.
        return wake > now ? wake : kNeverCycle;
    }
};

SystemConfig
smallConfig()
{
    SystemConfig c;
    c.meshX = 2;
    c.meshY = 2;
    c.clusterSize = 2;
    c.windowCycles = 200;
    return c;
}

std::unique_ptr<TrafficSource>
uniform(double rate, const SystemConfig &cfg, std::uint64_t seed = 1)
{
    return makeTraffic(TrafficSpec::uniform(rate, 4, seed), cfg);
}

} // namespace

// ---------------------------------------------------------------------
// Kernel scheduler mechanics (stub components).
// ---------------------------------------------------------------------

TEST(IdleElision, ComponentReportingNeverParksAfterOneTick)
{
    Kernel k;
    Sleeper s; // wake = kNeverCycle
    k.addTicking(&s);
    EXPECT_EQ(k.activeCount(), 1u);
    k.run(5);
    EXPECT_EQ(s.ticks, (std::vector<Cycle>{0})); // ticked once, parked
    EXPECT_TRUE(s.asleep());
    EXPECT_EQ(k.activeCount(), 0u);
    EXPECT_EQ(k.tickingCount(), 1u);
}

TEST(IdleElision, TimedWakeLandsOnTheExactCycle)
{
    Kernel k;
    Sleeper s;
    s.wake = 7; // park until cycle 7 after the first tick
    k.addTicking(&s);
    k.run(8);
    EXPECT_EQ(s.ticks, (std::vector<Cycle>{0, 7}));
}

TEST(IdleElision, SelfReArmingComponentTicksPeriodically)
{
    Kernel k;
    struct Periodic : Ticking
    {
        std::vector<Cycle> ticks;
        void tick(Cycle now) override { ticks.push_back(now); }
        Cycle nextWakeCycle(Cycle now) override { return now + 5; }
    } p;
    k.addTicking(&p);
    k.run(16);
    EXPECT_EQ(p.ticks, (std::vector<Cycle>{0, 5, 10, 15}));
}

TEST(IdleElision, WakeAtPullsASleeperInEarlier)
{
    Kernel k;
    Sleeper s; // parks indefinitely after cycle 0
    k.addTicking(&s);
    k.run(2);
    ASSERT_TRUE(s.asleep());
    s.wakeAt(4);
    k.run(4); // through cycle 5
    EXPECT_EQ(s.ticks, (std::vector<Cycle>{0, 4}));
    EXPECT_TRUE(s.asleep()); // re-parked after the woken tick
}

TEST(IdleElision, EarlierWakeOverridesLaterPendingWake)
{
    Kernel k;
    Sleeper s;
    s.wake = 50;
    k.addTicking(&s);
    k.step(); // tick at 0, park until 50
    s.wakeAt(3);
    k.run(9);
    EXPECT_EQ(s.ticks, (std::vector<Cycle>{0, 3}));
}

TEST(IdleElision, LaterWakeAtDoesNotDelayPendingWake)
{
    Kernel k;
    Sleeper s;
    s.wake = 5;
    k.addTicking(&s);
    k.step();
    s.wakeAt(30); // hint later than the armed wake: must not postpone
    k.run(7);
    EXPECT_EQ(s.ticks, (std::vector<Cycle>{0, 5}));
}

TEST(IdleElision, WakeAtIsANoOpWhileActive)
{
    Kernel k;
    struct Active : Ticking
    {
        std::vector<Cycle> ticks;
        void tick(Cycle now) override { ticks.push_back(now); }
        // default nextWakeCycle: stays active every cycle
    } a;
    k.addTicking(&a);
    k.step();
    a.wakeAt(100); // must not park or reschedule an active component
    k.run(3);
    EXPECT_EQ(a.ticks, (std::vector<Cycle>{0, 1, 2, 3}));
}

TEST(IdleElision, MidPassWakeOfLaterComponentLandsSameCycle)
{
    // A (order 0) hands work to sleeping B (order 1) during its tick.
    // B is behind the pass cursor, so it can still run this cycle --
    // exactly what an always-awake B would have observed.
    Kernel k;
    struct Waker : Ticking
    {
        Ticking *target = nullptr;
        Cycle fireAt = kNeverCycle;
        void tick(Cycle now) override
        {
            if (now == fireAt)
                target->wakeAt(now);
        }
    } a;
    Sleeper b;
    k.addTicking(&a);
    k.addTicking(&b);
    k.run(2); // b parks after cycle 0
    ASSERT_TRUE(b.asleep());
    a.fireAt = 3;
    a.target = &b;
    k.run(3); // through cycle 4
    EXPECT_EQ(b.ticks, (std::vector<Cycle>{0, 3}));
}

TEST(IdleElision, MidPassWakeOfEarlierComponentDefersOneCycle)
{
    // B (order 1) wakes sleeping A (order 0) with at=now. The pass
    // cursor already passed A's slot, so A runs at now+1 -- the first
    // cycle an always-awake A would have seen the interaction too
    // (time-tagged handoffs are never consumed the cycle they are
    // produced against tick order).
    Kernel k;
    Sleeper a;
    struct Waker : Ticking
    {
        Ticking *target = nullptr;
        Cycle fireAt = kNeverCycle;
        void tick(Cycle now) override
        {
            if (now == fireAt)
                target->wakeAt(now);
        }
    } b;
    k.addTicking(&a);
    k.addTicking(&b);
    k.run(2); // a parks after cycle 0
    ASSERT_TRUE(a.asleep());
    b.fireAt = 3;
    b.target = &a;
    k.run(3); // through cycle 4
    EXPECT_EQ(a.ticks, (std::vector<Cycle>{0, 4}));
}

TEST(IdleElision, ReAdmittedComponentKeepsRegistrationOrder)
{
    Kernel k;
    std::vector<int> log;
    struct Always : Ticking
    {
        std::vector<int> *log = nullptr;
        int id = 0;
        void tick(Cycle) override { log->push_back(id); }
    };
    Always first, last;
    first.log = &log;
    first.id = 1;
    last.log = &log;
    last.id = 3;
    Sleeper middle;
    middle.log = &log;
    middle.id = 2;
    k.addTicking(&first);
    k.addTicking(&middle);
    k.addTicking(&last);
    k.run(2); // cycle 0: 1,2,3; cycle 1: 1,3 (middle parked)
    ASSERT_TRUE(middle.asleep());
    middle.wakeAt(2);
    log.clear();
    k.step(); // cycle 2: middle must tick between first and last
    EXPECT_EQ(log, (std::vector<int>{1, 2, 3}));
}

TEST(IdleElision, MidPassWakesAcrossAwakeSetWordsKeepTickOrder)
{
    // 150 sleepers span three 64-bit words of the awake set. During
    // cycle 3 the waker at slot 10 wakes sleepers ahead of the cursor
    // — the last bit of word 0, the first of word 1, one in word 2 —
    // and one behind it. The ones ahead tick this cycle in slot order;
    // the one behind ticks next cycle.
    Kernel k;
    std::vector<int> log;
    std::vector<Sleeper> sleepers(150);
    struct Waker : Ticking
    {
        std::vector<Ticking *> targets;
        std::vector<int> *log = nullptr;
        void tick(Cycle now) override
        {
            log->push_back(-1);
            if (now == 3) {
                for (Ticking *t : targets)
                    t->wakeAt(now);
            }
        }
    } waker;
    waker.log = &log;
    for (int i = 0; i < 150; i++) {
        sleepers[static_cast<std::size_t>(i)].log = &log;
        sleepers[static_cast<std::size_t>(i)].id = i;
    }
    for (int i = 0; i < 150; i++) {
        if (i == 10)
            k.addTicking(&waker);
        else
            k.addTicking(&sleepers[static_cast<std::size_t>(i)]);
    }
    waker.targets = {&sleepers[130], &sleepers[63], &sleepers[5],
                     &sleepers[64]};
    k.run(3); // every sleeper parks after cycle 0
    EXPECT_EQ(k.activeCount(), 1u);
    log.clear();
    k.step(); // cycle 3
    EXPECT_EQ(log, (std::vector<int>{-1, 63, 64, 130}));
    log.clear();
    k.step(); // cycle 4
    EXPECT_EQ(log, (std::vector<int>{5, -1}));
    EXPECT_EQ(k.activeCount(), 1u);
}

TEST(IdleElision, DomainLayoutFollowsRegistrationOrderNotSetDomainOrder)
{
    // setDomain is O(1) and only records the move; the member lists
    // are rebuilt at the first step, in registration (tick) order
    // whatever order the moves came in.
    Kernel k; // one shard
    std::vector<int> log;
    std::vector<Sleeper> s(5);
    for (int i = 0; i < 5; i++) {
        s[static_cast<std::size_t>(i)].log = &log;
        s[static_cast<std::size_t>(i)].id = i;
        s[static_cast<std::size_t>(i)].wake = 1; // tick at 0 and 1
        k.addTicking(&s[static_cast<std::size_t>(i)]);
    }
    for (int i : {4, 1, 3})
        k.setDomain(&s[static_cast<std::size_t>(i)], 1);
    EXPECT_EQ(k.activeCount(), 5u);
    k.run(2);
    // Serial domain 0 (0, 2) before shard domain 1 (1, 3, 4).
    EXPECT_EQ(log, (std::vector<int>{0, 2, 1, 3, 4, 0, 2, 1, 3, 4}));
    EXPECT_EQ(k.activeCount(), 0u);
}

TEST(IdleElision, ElisionOffNeverSleeps)
{
    Kernel k(1, /*idle_elision=*/false);
    Sleeper s; // reports kNeverCycle, but elision is off
    k.addTicking(&s);
    k.run(4);
    EXPECT_FALSE(s.asleep());
    EXPECT_EQ(s.ticks, (std::vector<Cycle>{0, 1, 2, 3}));
}

// ---------------------------------------------------------------------
// Real-system quiescence and wake edges.
// ---------------------------------------------------------------------

TEST(IdleElisionSystem, IdleSystemFullyQuiesces)
{
    PoeSystem sys(smallConfig());
    EXPECT_GT(sys.kernel().tickingCount(), 0u);
    sys.run(2000);
    // No traffic: the pump, every router, and every node park.
    EXPECT_EQ(sys.kernel().activeCount(), 0u);
    EXPECT_EQ(sys.now(), 2000u);
}

TEST(IdleElisionSystem, InjectionWakesPathDeliversAndReParks)
{
    SystemConfig cfg = smallConfig();
    PoeSystem sys(cfg);
    sys.run(2000);
    ASSERT_EQ(sys.kernel().activeCount(), 0u);
    std::uint64_t ejected = sys.network().packetsEjected();
    // Hand a packet directly to a sleeping node: the enqueue wake edge
    // must rouse it, the flit handoffs must rouse each router on the
    // route, and the whole path must go back to sleep after delivery.
    sys.network().injectPacket(0, 7, 4, sys.now());
    EXPECT_GT(sys.kernel().activeCount(), 0u);
    sys.run(2000);
    EXPECT_EQ(sys.network().packetsEjected(), ejected + 1);
    EXPECT_EQ(sys.kernel().activeCount(), 0u);
}

TEST(IdleElisionSystem, TrafficKeepsPumpAwakeAndQuiescesAfterDetach)
{
    SystemConfig cfg = smallConfig();
    PoeSystem sys(cfg);
    sys.setTraffic(uniform(0.3, cfg));
    sys.run(1000);
    // The pump draws RNG every cycle while a source is attached.
    EXPECT_GT(sys.kernel().activeCount(), 0u);
    EXPECT_GT(sys.network().packetsInjected(), 0u);
    sys.setTraffic(nullptr);
    sys.run(3000); // in-flight packets drain, then everything parks
    EXPECT_EQ(sys.kernel().activeCount(), 0u);
    EXPECT_EQ(sys.network().flitsInSystem(), 0u);
}

// ---------------------------------------------------------------------
// Randomized soak: elision on vs off must be indistinguishable.
// ---------------------------------------------------------------------

namespace {

struct SoakResult
{
    std::string trace; ///< full JSONL stream, byte-for-byte
    RunMetrics metrics;
    std::uint64_t injected = 0;
    std::uint64_t ejected = 0;
};

SoakResult
soakRun(SystemConfig cfg, bool elision, double rate, std::uint64_t seed)
{
    cfg.idleElision = elision;
    SoakResult r;
    std::ostringstream os;
    JsonlTraceSink sink(os);
    PoeSystem sys(cfg);
    sys.setTraceSink(&sink, 500);
    sys.setTraffic(uniform(rate, cfg, seed));
    sys.run(1000);
    sys.startMeasurement();
    sys.run(2000);
    sys.stopMeasurement();
    sys.awaitDrain(8000);
    r.metrics = sys.metrics();
    sys.setTraceSink(nullptr);
    r.trace = os.str();
    r.injected = sys.network().packetsInjected();
    r.ejected = sys.network().packetsEjected();
    return r;
}

void
expectIdentical(const SoakResult &on, const SoakResult &off)
{
    // Byte-identical trace stream: same events, same order, same
    // emission positions (the lazy link-walk property).
    EXPECT_EQ(on.trace, off.trace);
    EXPECT_GT(on.trace.size(), 0u);
    EXPECT_EQ(on.injected, off.injected);
    EXPECT_EQ(on.ejected, off.ejected);
    EXPECT_EQ(on.metrics.avgLatency, off.metrics.avgLatency);
    EXPECT_EQ(on.metrics.packetsMeasured, off.metrics.packetsMeasured);
    EXPECT_EQ(on.metrics.avgPowerMw, off.metrics.avgPowerMw);
    EXPECT_EQ(on.metrics.transitions, off.metrics.transitions);
    EXPECT_EQ(on.metrics.flitsCorrupted, off.metrics.flitsCorrupted);
}

} // namespace

TEST(IdleElisionSoak, UniformTrafficHistoriesIdentical)
{
    for (std::uint64_t seed : {1u, 2u, 3u}) {
        for (double rate : {0.2, 1.0}) {
            SoakResult on = soakRun(smallConfig(), true, rate, seed);
            SoakResult off = soakRun(smallConfig(), false, rate, seed);
            SCOPED_TRACE("seed=" + std::to_string(seed) +
                         " rate=" + std::to_string(rate));
            expectIdentical(on, off);
        }
    }
}

TEST(IdleElisionSoak, FaultedRunHistoriesIdentical)
{
    // Faults exercise the receiver-side wake edges: lock-loss outages,
    // scripted hard failure, and transition-completion walks on links
    // whose receivers may be asleep.
    SystemConfig cfg = smallConfig();
    cfg.fault.enabled = true;
    cfg.fault.seed = 9;
    cfg.fault.berFloor = 1e-5;
    cfg.fault.lockLossPerCycle = 2e-4;
    cfg.fault.killLink = 3;
    cfg.fault.killCycle = 1500;
    for (std::uint64_t seed : {5u, 6u}) {
        SoakResult on = soakRun(cfg, true, 0.5, seed);
        SoakResult off = soakRun(cfg, false, 0.5, seed);
        SCOPED_TRACE("seed=" + std::to_string(seed));
        expectIdentical(on, off);
        EXPECT_GT(on.metrics.flitsCorrupted +
                      static_cast<std::uint64_t>(
                          on.metrics.linkHardFailures),
                  0u); // the fault machinery actually ran
    }
}

TEST(IdleElisionSoak, OnOffPolicyHistoriesIdentical)
{
    // The on/off policy power-gates links (wake transitions), the
    // other wake-edge family the DVS default doesn't exercise.
    SystemConfig cfg = smallConfig();
    cfg.policyMode = PolicyMode::kOnOff;
    SoakResult on = soakRun(cfg, true, 0.4, 11);
    SoakResult off = soakRun(cfg, false, 0.4, 11);
    expectIdentical(on, off);
}

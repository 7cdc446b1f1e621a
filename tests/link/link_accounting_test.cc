/**
 * @file
 * Accounting-hygiene regressions for OpticalLink power/energy:
 *
 *  - sampling idempotency: energyMj()/powerIntegralMwCycles() are
 *    pure reads — sampling twice mid-epoch (or mid-transition, or
 *    mid-wake-settle) must return identical bits and change nothing;
 *  - the wake-from-off transition window draws gate-off power for the
 *    settle interval, not full target power for the whole relock;
 *  - the link's LinkPowerLedger row is its accounting through
 *    transitions, gating, faults, and resetStats: the row's columns
 *    and pending flag track the link's lifecycle, and the link reads
 *    its power, energy, and flit count back from that row alone.
 *
 * GOLDEN RE-RECORD RATIONALE (wake-settle): before this change a link
 * waking from the gated-off state was charged its full target power
 * for the entire T_br relock even though the transmitter spends the
 * first Params::wakeSettleCycles still stabilizing at gate-off drain.
 * The expected energies below charge offPowerMw for the settle
 * interval and target power for the remainder — physically the
 * measured behavior, and the reason wake-heavy (on/off policy) energy
 * totals shrank slightly. wakeSettleCycles = 0 restores the old
 * accounting exactly.
 */

#include <gtest/gtest.h>

#include "fault/fault_injector.hh"
#include "link/link.hh"
#include "phy/power_ledger.hh"

using namespace oenet;

namespace {

OpticalLink::Params
testParams()
{
    OpticalLink::Params p;
    p.scheme = LinkScheme::kVcsel;
    p.freqTransitionCycles = 20;
    p.voltTransitionCycles = 100;
    p.wakeSettleCycles = 10;
    p.initialLevel = 5;
    return p;
}

} // namespace

TEST(LinkAccounting, RepeatedSamplesAreIdempotent)
{
    // The integrator folds value*(dt) lazily; a second sample at the
    // same cycle must not fold anything twice. Checked at a stable
    // point, mid-transition, and mid-wake-settle.
    auto levels = BitrateLevelTable::linear(5.0, 10.0, 6);
    LinkPowerLedger ledger(1);
    OpticalLink link("idem", LinkKind::kInterRouter, levels,
                     testParams(), ledger);

    auto sample_twice = [&](Cycle at) {
        double e1 = link.energyMj(at);
        double i1 = link.powerIntegralMwCycles(at);
        double e2 = link.energyMj(at);
        double i2 = link.powerIntegralMwCycles(at);
        EXPECT_EQ(e1, e2) << "energy changed on resample at " << at;
        EXPECT_EQ(i1, i2) << "integral changed on resample at " << at;
    };

    sample_twice(500); // stable
    link.requestLevel(1000, 2);
    sample_twice(1050); // mid volt ramp
    sample_twice(1105); // mid freq switch
    link.setOff(2000, true);
    sample_twice(2500); // gated off
    link.setOff(3000, false);
    sample_twice(3005); // mid wake settle
    sample_twice(3015); // post settle, still relocking

    // Sampling must also not perturb the *future* integral: two links
    // driven identically, one sampled obsessively, agree bitwise.
    OpticalLink quiet("q", LinkKind::kInterRouter, levels,
                      testParams(), ledger);
    quiet.requestLevel(1000, 2);
    quiet.setOff(2000, true);
    quiet.setOff(3000, false);
    EXPECT_EQ(link.powerIntegralMwCycles(5000),
              quiet.powerIntegralMwCycles(5000));
}

TEST(LinkAccounting, WakeChargesSettlePowerThenTargetPower)
{
    // Satellite fix: wake from off used to charge full target power
    // for the whole relock. Expected: offPowerMw for the settle
    // interval, target power from wakeSettleEnd on.
    auto levels = BitrateLevelTable::linear(5.0, 10.0, 6);
    OpticalLink::Params p = testParams();
    LinkPowerLedger ledger(1);
    OpticalLink link("wake", LinkKind::kInterRouter, levels, p, ledger);

    double full = link.powerMw(0); // stable at initialLevel = max
    link.setOff(1000, true);
    EXPECT_DOUBLE_EQ(link.powerMw(1500), p.offPowerMw);
    double off_start = link.powerIntegralMwCycles(1000);

    link.setOff(2000, false); // wake: 20-cycle relock, 10-cycle settle
    // During the settle the transmitter still draws gate-off power.
    EXPECT_DOUBLE_EQ(link.powerMw(2005), p.offPowerMw);
    // After the settle boundary it draws the target power, still
    // relocking (link disabled but powered).
    EXPECT_DOUBLE_EQ(link.powerMw(2015), full);
    EXPECT_DOUBLE_EQ(link.powerMw(2020), full);

    // Energy across [1000, 2030): 1000 cycles off + 10 settle at off
    // power + 20 at full power (relock tail 10 + 10 stable).
    double integral =
        link.powerIntegralMwCycles(2030) - off_start;
    EXPECT_NEAR(integral, p.offPowerMw * 1010 + full * 20, 1e-9);
}

TEST(LinkAccounting, SettleCappedByRelockAndZeroRestoresOldModel)
{
    auto levels = BitrateLevelTable::linear(5.0, 10.0, 6);

    // wakeSettleCycles > T_br: the settle cannot outlive the relock.
    OpticalLink::Params p = testParams();
    p.wakeSettleCycles = 1000;
    LinkPowerLedger ledger(1);
    OpticalLink capped("cap", LinkKind::kInterRouter, levels, p, ledger);
    capped.setOff(100, true);
    double mark = capped.powerIntegralMwCycles(1000);
    capped.setOff(1000, false);
    double full = capped.powerMw(5000); // stable again
    double integral = capped.powerIntegralMwCycles(5000) - mark;
    // All 20 relock cycles at off power, then full.
    EXPECT_NEAR(integral,
                p.offPowerMw * 20 + full * (4000 - 20), 1e-9);

    // wakeSettleCycles = 0: bitwise the pre-fix accounting.
    p.wakeSettleCycles = 0;
    OpticalLink legacy("leg", LinkKind::kInterRouter, levels, p, ledger);
    legacy.setOff(100, true);
    double lmark = legacy.powerIntegralMwCycles(1000);
    legacy.setOff(1000, false);
    double lintegral = legacy.powerIntegralMwCycles(5000) - lmark;
    EXPECT_NEAR(lintegral, full * 4000, 1e-9);
}

TEST(LinkAccounting, LedgerMirrorsLinkBitwiseThroughLifecycle)
{
    // Two links share one ledger, so each must write and read its own
    // row: the second link's lifecycle below must leave the first
    // link's row exactly as its own (untouched) lifecycle left it.
    auto levels = BitrateLevelTable::linear(5.0, 10.0, 6);
    LinkPowerLedger led(2);
    OpticalLink::Params p = testParams();
    OpticalLink idle("idle", LinkKind::kInjection, levels, p, led);
    OpticalLink link("led", LinkKind::kInterRouter, levels, p, led);
    ASSERT_EQ(led.numLinks(), 2);
    const int id = 1; // rows are numbered in registration order

    // Construction registers the row at the initial operating point.
    const double full = link.powerMw(0);
    EXPECT_EQ(led.kindIndex(id),
              static_cast<int>(LinkKind::kInterRouter));
    EXPECT_EQ(led.baselineMw(id), link.maxPowerMw());
    EXPECT_EQ(led.level(id), p.initialLevel);
    EXPECT_EQ(led.dynPowerMw(id), full);
    EXPECT_EQ(led.dynIntegralMwCycles(id, 0), 0.0);

    // Every power change lands in the row at its exact cycle, so the
    // row integrates the piecewise-constant signal: a reference
    // TimeWeighted fed the same steps agrees bit for bit.
    TimeWeighted ref(full);
    auto expect_row = [&](Cycle at, bool pending) {
        double mw = link.powerMw(at);
        ref.update(at, mw);
        EXPECT_EQ(led.dynPowerMw(id), mw) << "at " << at;
        EXPECT_EQ(link.powerIntegralMwCycles(at), ref.integral(at))
            << "at " << at;
        EXPECT_EQ(led.dynIntegralMwCycles(id, at), ref.integral(at))
            << "at " << at;
        EXPECT_EQ(led.isPending(id), pending) << "at " << at;
    };

    expect_row(10, false);
    link.requestLevel(100, 1); // down: freq first, then volt ramp
    EXPECT_EQ(led.level(id), 1);
    expect_row(100, true);  // freq switch [100, 120)
    expect_row(120, true);  // volt ramp down [120, 220)
    expect_row(220, false); // stable at level 1
    link.setOff(1000, true);
    expect_row(1000, false); // gated off: holds its power
    link.setOff(2000, false); // wake: settle [2000, 2010), relock to 2020
    expect_row(2000, true);
    expect_row(2010, true);
    expect_row(2020, false);

    // resetStats restarts the row's integral and flit counters.
    link.resetStats(3000);
    ref.reset(3000);
    expect_row(3000, false);
    link.requestLevel(3100, 4); // up: volt ramp, then freq switch
    expect_row(3100, true);  // volt ramp up [3100, 3200)
    expect_row(3200, true);  // freq switch [3200, 3220)
    expect_row(3220, false); // stable at level 4

    // Flits count into the row, per VC.
    Flit f;
    f.flags = Flit::kHeadFlag | Flit::kTailFlag;
    f.len = 1;
    f.vc = 1;
    ASSERT_TRUE(link.canAccept(4000));
    link.accept(4000, f);
    EXPECT_EQ(link.totalFlits(), 1u);
    EXPECT_EQ(led.totalFlits(id), 1u);
    EXPECT_EQ(led.vcFlits(id, 1), 1u);
    EXPECT_EQ(led.vcFlits(id, 0), 0u);

    // A fault model makes the link pending while it can still fail or
    // lose lock; the hard failure settles it for good.
    FaultParams fp;
    fp.enabled = true;
    fp.killLink = id;
    fp.killCycle = 6000;
    FaultInjector faults(fp, led.numLinks());
    link.setFault(&faults, id);
    expect_row(5000, true);
    expect_row(6000, false);
    EXPECT_TRUE(link.isFailed());
    EXPECT_EQ(led.dynPowerMw(id), p.offPowerMw);

    // The untouched link's row never moved.
    EXPECT_EQ(led.dynPowerMw(0), full);
    EXPECT_EQ(led.dynIntegralMwCycles(0, 6000), full * 6000.0);
    EXPECT_EQ(led.totalFlits(0), 0u);
    EXPECT_FALSE(led.isPending(0));
}

TEST(LinkAccounting, DetachingFaultsClearsPending)
{
    auto levels = BitrateLevelTable::linear(5.0, 10.0, 6);
    LinkPowerLedger led(1);
    OpticalLink link("f", LinkKind::kInterRouter, levels, testParams(),
                     led);
    FaultParams fp;
    fp.enabled = true;
    FaultInjector faults(fp, 1);
    link.setFault(&faults, 0);
    EXPECT_TRUE(led.isPending(0));
    link.setFault(nullptr, kInvalid);
    EXPECT_FALSE(led.isPending(0));
}

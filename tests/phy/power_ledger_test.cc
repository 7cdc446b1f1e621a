/**
 * @file
 * LinkPowerLedger unit tests: the SoA columns must fold exactly like a
 * TimeWeighted integrator, *bitwise* (that equivalence is what keeps
 * leakage-off outputs byte-identical to the era of per-link
 * integrators), per-VC energy attribution must split each link's
 * integral by its flit counts, and the batched thermal epoch must
 * converge under the leakage feedback loop.
 */

#include <cmath>

#include <gtest/gtest.h>

#include "common/stats.hh"
#include "phy/power_ledger.hh"

using namespace oenet;

namespace {

ThermalParams
thermalOn()
{
    ThermalParams p;
    p.enabled = true;
    return p;
}

} // namespace

TEST(PowerLedger, MirrorsTimeWeightedBitwise)
{
    LinkPowerLedger led(1);
    int id = led.addLink(0, 291.25, 5, 291.25, 1.0);

    TimeWeighted tw(291.25);
    // An awkward sequence on purpose: repeated same-cycle updates,
    // long gaps, irrational-ish values from a ramp interpolation.
    struct Step { Cycle at; double mw; };
    const Step steps[] = {{10, 61.25},   {10, 61.25},  {137, 119.703},
                          {137, 204.08}, {5000, 2.0},  {5001, 291.25},
                          {99999, 61.25}};
    for (const Step &s : steps) {
        tw.update(s.at, s.mw);
        led.updateDynamic(id, s.at, s.mw, s.mw / 291.25);
    }
    for (Cycle at : {Cycle{99999}, Cycle{100000}, Cycle{250000}}) {
        // Bitwise, not approximate: same folds in the same order.
        EXPECT_EQ(led.dynIntegralMwCycles(id, at), tw.integral(at));
        EXPECT_EQ(led.totalDynIntegralMwCycles(at), tw.integral(at));
    }
    EXPECT_EQ(led.dynPowerMw(id), tw.value());
    EXPECT_EQ(led.totalDynMw(), tw.value());
}

TEST(PowerLedger, ResetDynamicMirrorsTimeWeightedReset)
{
    LinkPowerLedger led(2);
    int id = led.addLink(0, 291.25, 5, 291.25, 1.0);
    TimeWeighted tw(291.25);

    tw.update(100, 61.25);
    led.updateDynamic(id, 100, 61.25, 0.5);
    led.countFlit(id, 0);
    led.countFlit(id, 1);

    tw.reset(500);
    led.resetDynamic(id, 500);
    EXPECT_EQ(led.totalFlits(id), 0u);
    EXPECT_EQ(led.vcFlits(id, 0), 0u);
    EXPECT_EQ(led.vcFlits(id, 1), 0u);

    tw.update(900, 119.5);
    led.updateDynamic(id, 900, 119.5, 0.7);
    EXPECT_EQ(led.dynIntegralMwCycles(id, 1500), tw.integral(1500));
}

TEST(PowerLedger, PendingFlagTracksSetPending)
{
    LinkPowerLedger led(1);
    int a = led.addLink(0, 100.0, 0, 100.0, 1.0);
    int b = led.addLink(1, 100.0, 0, 100.0, 1.0);
    EXPECT_FALSE(led.isPending(a));
    EXPECT_FALSE(led.isPending(b));
    led.setPending(b, true);
    EXPECT_FALSE(led.isPending(a));
    EXPECT_TRUE(led.isPending(b));
    led.setPending(b, true); // idempotent
    EXPECT_TRUE(led.isPending(b));
    led.setPending(b, false);
    EXPECT_FALSE(led.isPending(b));
}

TEST(PowerLedgerDeath, TimeGoingBackwardsPanics)
{
    // The row is the link's only integrator, so it keeps
    // TimeWeighted::update's guard: folding a negative interval would
    // silently subtract energy.
    LinkPowerLedger led(1);
    int id = led.addLink(0, 291.25, 5, 291.25, 1.0);
    led.updateDynamic(id, 500, 61.25, 0.5);
    EXPECT_DEATH(led.updateDynamic(id, 499, 119.5, 0.7),
                 "time went backwards");
}

TEST(PowerLedgerDeath, FlitPastTheVcRowPanics)
{
    // Rows are sized by the constructor's VC count; a flit on a VC the
    // ledger was not sized for must not spill into the next row.
    LinkPowerLedger led(2);
    int a = led.addLink(0, 100.0, 0, 100.0, 1.0);
    led.addLink(0, 100.0, 0, 100.0, 1.0);
    led.countFlit(a, 1);
    EXPECT_DEATH(led.countFlit(a, 2), "vc 2 of 2");
    EXPECT_DEATH(led.countFlit(a, -1), "vc -1 of 2");
}

TEST(PowerLedger, AttributesEnergyByVcFlitShares)
{
    LinkPowerLedger led(2);
    int a = led.addLink(0, 100.0, 0, 100.0, 1.0); // 100 mW constant
    int b = led.addLink(0, 200.0, 0, 200.0, 1.0); // 200 mW constant

    // Link a: 3 flits on VC0, 1 on VC1. Link b: all 4 on VC1.
    led.countFlit(a, 0);
    led.countFlit(a, 0);
    led.countFlit(a, 0);
    led.countFlit(a, 1);
    for (int i = 0; i < 4; i++)
        led.countFlit(b, 1);

    // At cycle 1000: a integrated 100k mW-cycles, b 200k.
    std::vector<double> vc;
    led.attributeVcEnergy(1000, vc);
    ASSERT_EQ(vc.size(), 2u);
    EXPECT_DOUBLE_EQ(vc[0], 100000.0 * 0.75);
    EXPECT_DOUBLE_EQ(vc[1], 100000.0 * 0.25 + 200000.0);

    // A link that carried nothing attributes nothing (no 0/0).
    int c = led.addLink(0, 50.0, 0, 50.0, 1.0);
    (void)c;
    led.attributeVcEnergy(1000, vc);
    EXPECT_DOUBLE_EQ(vc[0], 100000.0 * 0.75);
}

TEST(PowerLedger, ThermalDisabledContributesExactZero)
{
    LinkPowerLedger led(1);
    int id = led.addLink(0, 291.25, 5, 291.25, 1.0);
    led.advanceThermal(100000); // must be a no-op
    EXPECT_EQ(led.leakPowerMw(id), 0.0);
    EXPECT_EQ(led.totalLeakMw(), 0.0);
    EXPECT_EQ(led.totalLeakIntegralMwCycles(123456), 0.0);
    EXPECT_EQ(led.effectivePowerMw(id), led.dynPowerMw(id));
}

TEST(PowerLedger, ThermalEpochConvergesWithLeakageFeedback)
{
    // One link at a constant 291.25 mW dynamic load, stepped through
    // thermal epochs: temperature must rise monotonically and settle
    // (no oscillation), leakage must grow with it, and the fixed
    // point must satisfy T = steadyTempC(dyn + leak(T)).
    ThermalParams p = thermalOn();
    LinkPowerLedger led(1, p, 1.8);
    int id = led.addLink(0, 291.25, 5, 291.25, 1.0);

    LeakageModel model(p, 1.8);
    double leak0 = led.leakPowerMw(id);
    EXPECT_DOUBLE_EQ(leak0, 5.0); // reference-point leakage

    double prev = led.tempC(id);
    Cycle now = 0;
    for (int epoch = 1; epoch <= 8000; epoch++) {
        now = static_cast<Cycle>(epoch) * p.epochCycles;
        led.advanceThermal(now);
        double t = led.tempC(id);
        ASSERT_GE(t, prev - 1e-12) << "epoch " << epoch;
        prev = t;
    }
    double t_end = led.tempC(id);
    double leak_end = led.leakPowerMw(id);
    EXPECT_GT(t_end, 56.65); // leakage heats past the dynamic-only T_ss
    EXPECT_GT(leak_end, leak0);
    EXPECT_NEAR(t_end, model.steadyTempC(291.25 + leak_end), 1e-3);
    EXPECT_NEAR(leak_end, model.leakageMw(1.0, t_end), 1e-9);
    EXPECT_EQ(led.maxTempC(), t_end);

    // The leakage integral is consistent with the (piecewise-constant
    // per epoch) leakage power series: bounded by min/max power.
    double integral = led.totalLeakIntegralMwCycles(now);
    EXPECT_GT(integral, leak0 * static_cast<double>(now) - 1e-6);
    EXPECT_LT(integral, leak_end * static_cast<double>(now) + 1e-6);
}

TEST(PowerLedger, GatedLinkCoolsToAmbientAndStopsLeaking)
{
    ThermalParams p = thermalOn();
    LinkPowerLedger led(1, p, 1.8);
    int id = led.addLink(0, 291.25, 5, 291.25, 1.0);

    // Warm it up, then gate it off (0 mW dynamic, vdd cut).
    for (int epoch = 1; epoch <= 2000; epoch++)
        led.advanceThermal(static_cast<Cycle>(epoch) * p.epochCycles);
    double hot = led.tempC(id);
    EXPECT_GT(hot, p.ambientC);

    led.updateDynamic(id, 2000 * p.epochCycles, 0.0, 0.0);
    double prev = led.tempC(id);
    for (int epoch = 2001; epoch <= 10000; epoch++) {
        led.advanceThermal(static_cast<Cycle>(epoch) * p.epochCycles);
        ASSERT_LE(led.tempC(id), prev + 1e-12);
        prev = led.tempC(id);
    }
    EXPECT_NEAR(led.tempC(id), p.ambientC, 1e-2);
    EXPECT_EQ(led.leakPowerMw(id), 0.0); // vdd_frac 0 -> no leakage
}

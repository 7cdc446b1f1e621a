/** @file Tests for the simulation kernel. */

#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "sim/kernel.hh"

using namespace oenet;

namespace {

class CountingComponent : public Ticking
{
  public:
    std::vector<Cycle> ticks;

    void tick(Cycle now) override { ticks.push_back(now); }
};

} // namespace

TEST(Kernel, StartsAtCycleZero)
{
    Kernel k;
    EXPECT_EQ(k.now(), 0u);
}

TEST(Kernel, StepAdvancesTime)
{
    Kernel k;
    k.step();
    k.step();
    EXPECT_EQ(k.now(), 2u);
}

TEST(Kernel, TicksComponentsEveryCycle)
{
    Kernel k;
    CountingComponent c;
    k.addTicking(&c);
    k.run(5);
    EXPECT_EQ(c.ticks, (std::vector<Cycle>{0, 1, 2, 3, 4}));
}

TEST(Kernel, TickOrderFollowsRegistration)
{
    Kernel k;
    std::vector<int> order;
    struct Probe : Ticking
    {
        std::vector<int> *order = nullptr;
        int id = 0;
        void tick(Cycle) override { order->push_back(id); }
    };
    Probe a, b;
    a.order = &order;
    a.id = 1;
    b.order = &order;
    b.id = 2;
    k.addTicking(&a);
    k.addTicking(&b);
    k.step();
    EXPECT_EQ(order, (std::vector<int>{1, 2}));
}

TEST(Kernel, EventsFireBeforeTicks)
{
    Kernel k;
    std::vector<std::string> order;
    struct Probe : Ticking
    {
        std::vector<std::string> *order = nullptr;
        void tick(Cycle) override { order->push_back("tick"); }
    };
    Probe p;
    p.order = &order;
    k.addTicking(&p);
    k.schedulePeriodic(0, 100, [&](Cycle) { order.push_back("event"); });
    k.step();
    ASSERT_EQ(order.size(), 2u);
    EXPECT_EQ(order[0], "event");
    EXPECT_EQ(order[1], "tick");
}

TEST(Kernel, PeriodicFiresRepeatedly)
{
    Kernel k;
    std::vector<Cycle> fires;
    k.schedulePeriodic(10, 10, [&](Cycle now) { fires.push_back(now); });
    k.run(45);
    EXPECT_EQ(fires, (std::vector<Cycle>{10, 20, 30, 40}));
}

TEST(Kernel, PeriodicReceivesScheduledTime)
{
    Kernel k;
    std::vector<Cycle> args;
    k.schedulePeriodic(5, 7, [&](Cycle t) { args.push_back(t); });
    k.run(20);
    EXPECT_EQ(args, (std::vector<Cycle>{5, 12, 19}));
}

TEST(Kernel, SetShardPassOrderRekeysTheRestOfATick)
{
    // Outside a shard pass there is no emission key to change.
    Kernel::setShardPassOrder(7);
    EXPECT_FALSE(Kernel::inShardPass());

    // Inside one, a tick's later emissions take the new key, and the
    // next component's tick starts from its own tick order again.
    struct Probe : Ticking
    {
        std::uint32_t rekey = 0;
        std::vector<std::uint32_t> seen;
        void tick(Cycle) override
        {
            seen.push_back(Kernel::shardPassOrder());
            if (rekey != 0) {
                Kernel::setShardPassOrder(rekey);
                seen.push_back(Kernel::shardPassOrder());
            }
        }
    };
    Kernel k; // one shard
    Probe a, b;
    a.rekey = 40;
    k.addTicking(&a);
    k.addTicking(&b);
    k.setDomain(&a, 1);
    k.setDomain(&b, 1);
    k.step();
    EXPECT_EQ(a.seen, (std::vector<std::uint32_t>{0, 40}));
    EXPECT_EQ(b.seen, (std::vector<std::uint32_t>{1}));
}

TEST(KernelDeath, NullComponentPanics)
{
    Kernel k;
    EXPECT_DEATH(k.addTicking(nullptr), "null");
}

TEST(KernelDeath, ZeroPeriodPanics)
{
    Kernel k;
    EXPECT_DEATH(k.schedulePeriodic(0, 0, [](Cycle) {}), "period");
}

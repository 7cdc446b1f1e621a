/** @file Tests for the periodic event queue. */

#include <gtest/gtest.h>

#include <vector>

#include "sim/event_queue.hh"

using namespace oenet;

namespace {

/** A period long enough that no test sees an entry fire twice. */
constexpr Cycle kOnce = 1000;

} // namespace

TEST(EventQueue, EmptyQueue)
{
    EventQueue q;
    EXPECT_TRUE(q.empty());
    q.runDue(100); // no-op
}

TEST(EventQueue, FiresAtScheduledCycle)
{
    EventQueue q;
    std::vector<Cycle> fired;
    q.schedulePeriodic(10, 5, [&](Cycle t) { fired.push_back(t); });
    q.runDue(9);
    EXPECT_TRUE(fired.empty());
    q.runDue(10);
    EXPECT_EQ(fired, (std::vector<Cycle>{10}));
    q.runDue(14);
    EXPECT_EQ(fired, (std::vector<Cycle>{10})); // not due again until 15
    q.runDue(15);
    EXPECT_EQ(fired, (std::vector<Cycle>{10, 15}));
}

TEST(EventQueue, FiresInTimeOrder)
{
    EventQueue q;
    std::vector<int> order;
    q.schedulePeriodic(30, kOnce, [&](Cycle) { order.push_back(3); });
    q.schedulePeriodic(10, kOnce, [&](Cycle) { order.push_back(1); });
    q.schedulePeriodic(20, kOnce, [&](Cycle) { order.push_back(2); });
    q.runDue(30);
    EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
}

TEST(EventQueue, SameCycleFifoOrder)
{
    EventQueue q;
    std::vector<int> order;
    for (int i = 0; i < 5; i++) {
        q.schedulePeriodic(7, kOnce,
                           [&order, i](Cycle) { order.push_back(i); });
    }
    q.runDue(7);
    EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 4}));
}

TEST(EventQueue, ReArmedEntryFiresAfterEntriesArmedEarlierForItsCycle)
{
    // A fires at 10 and is re-armed for 20 after B was armed for 20,
    // so at 20 B goes first although A was scheduled first.
    EventQueue q;
    std::vector<char> order;
    q.schedulePeriodic(10, 10, [&](Cycle) { order.push_back('A'); });
    q.schedulePeriodic(20, kOnce, [&](Cycle) { order.push_back('B'); });
    q.runDue(20);
    EXPECT_EQ(order, (std::vector<char>{'A', 'B', 'A'}));
}

TEST(EventQueue, EventsMayScheduleForSameCycle)
{
    EventQueue q;
    int fired = 0;
    q.schedulePeriodic(5, kOnce, [&](Cycle now) {
        fired++;
        q.schedulePeriodic(now, kOnce, [&](Cycle) { fired++; });
    });
    q.runDue(5);
    EXPECT_EQ(fired, 2);
}

TEST(EventQueue, EventsMayScheduleFuture)
{
    EventQueue q;
    int fired = 0;
    q.schedulePeriodic(1, kOnce, [&](Cycle) {
        q.schedulePeriodic(3, kOnce, [&](Cycle) { fired++; });
    });
    q.runDue(2);
    EXPECT_EQ(fired, 0);
    q.runDue(3);
    EXPECT_EQ(fired, 1);
}

TEST(EventQueueDeath, SchedulingIntoThePastPanics)
{
    EventQueue q;
    q.runDue(100);
    EXPECT_DEATH(q.schedulePeriodic(50, 10, [](Cycle) {}), "past");
}

/** @file Tests for the worker-pool primitive behind the sweep runner. */

#include <gtest/gtest.h>

#include <sched.h>

#include <atomic>
#include <stdexcept>
#include <thread>
#include <vector>

#include "common/parallel.hh"

using namespace oenet;

TEST(EffectiveJobs, NonPositiveMeansHardware)
{
    EXPECT_EQ(effectiveJobs(0, 1000), hardwareJobs());
    EXPECT_EQ(effectiveJobs(-3, 1000), hardwareJobs());
}

TEST(EffectiveJobs, NeverMoreThreadsThanItems)
{
    EXPECT_EQ(effectiveJobs(8, 3), 3);
    EXPECT_EQ(effectiveJobs(8, 8), 8);
}

TEST(EffectiveJobs, AtLeastOne)
{
    EXPECT_EQ(effectiveJobs(4, 0), 1);
    EXPECT_EQ(effectiveJobs(1, 100), 1);
}

TEST(HardwareJobs, Positive)
{
    EXPECT_GE(hardwareJobs(), 1);
}

TEST(HardwareJobs, CountsOnlyTheCpusThisThreadMayUse)
{
    // Pinned to one CPU (as under taskset), the hardware is one core
    // however many the machine has, so --jobs 0 and auto shards do not
    // oversubscribe it. The test thread's own mask is restored after.
    cpu_set_t saved;
    ASSERT_EQ(sched_getaffinity(0, sizeof(saved), &saved), 0);
    int first = 0;
    while (!CPU_ISSET(first, &saved))
        first++;
    cpu_set_t one;
    CPU_ZERO(&one);
    CPU_SET(first, &one);
    ASSERT_EQ(sched_setaffinity(0, sizeof(one), &one), 0);
    int pinned = hardwareJobs();
    ASSERT_EQ(sched_setaffinity(0, sizeof(saved), &saved), 0);
    EXPECT_EQ(pinned, 1);
    EXPECT_EQ(hardwareJobs(), CPU_COUNT(&saved));
}

TEST(ParallelFor, EveryIndexRunsExactlyOnce)
{
    for (int jobs : {1, 2, 4, 7}) {
        const std::size_t n = 100;
        std::vector<std::atomic<int>> hits(n);
        parallelFor(n, jobs,
                    [&](std::size_t i, int) { hits[i].fetch_add(1); });
        for (std::size_t i = 0; i < n; i++)
            EXPECT_EQ(hits[i].load(), 1) << "index " << i << " at jobs "
                                         << jobs;
    }
}

TEST(ParallelFor, WorkerIdsInRange)
{
    const int jobs = 3;
    std::atomic<bool> bad{false};
    parallelFor(50, jobs, [&](std::size_t, int worker) {
        if (worker < 0 || worker >= jobs)
            bad.store(true);
    });
    EXPECT_FALSE(bad.load());
}

TEST(ParallelFor, SerialRunsInOrderOnCallingThread)
{
    std::vector<std::size_t> order;
    std::thread::id caller = std::this_thread::get_id();
    bool sameThread = true;
    parallelFor(10, 1, [&](std::size_t i, int worker) {
        order.push_back(i);
        EXPECT_EQ(worker, 0);
        if (std::this_thread::get_id() != caller)
            sameThread = false;
    });
    EXPECT_TRUE(sameThread);
    ASSERT_EQ(order.size(), 10u);
    for (std::size_t i = 0; i < order.size(); i++)
        EXPECT_EQ(order[i], i);
}

TEST(ParallelFor, EmptyIsNoop)
{
    int calls = 0;
    parallelFor(0, 4, [&](std::size_t, int) { calls++; });
    EXPECT_EQ(calls, 0);
}

TEST(ParallelFor, ExceptionPropagates)
{
    for (int jobs : {1, 4}) {
        EXPECT_THROW(
            parallelFor(20, jobs,
                        [&](std::size_t i, int) {
                            if (i == 7)
                                throw std::runtime_error("boom");
                        }),
            std::runtime_error)
            << "jobs " << jobs;
    }
}

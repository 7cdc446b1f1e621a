/**
 * @file
 * Tests for the subprocess isolation primitives: payload round-trip,
 * exception/exit/signal classification, deadline enforcement (the
 * child is killed and reaped), and concurrent use from worker threads.
 */

#include <gtest/gtest.h>

#include <csignal>
#include <cstring>
#include <string>
#include <thread>
#include <vector>

#include <unistd.h>

#include "common/proc.hh"

using namespace oenet;

TEST(Proc, PayloadRoundTrip)
{
    ChildResult r = runInChild(
        [](int fd) {
            const char msg[] = "hello from the child";
            writeAll(fd, msg, sizeof(msg) - 1);
        },
        0.0);
    ASSERT_EQ(r.status, ChildResult::Status::kOk);
    EXPECT_TRUE(r.ok());
    EXPECT_EQ(r.payload, "hello from the child");
}

TEST(Proc, BinaryPayloadSurvivesExactly)
{
    // Raw struct bytes, including embedded NULs — the sweep runner
    // ships RunMetrics this way.
    struct Blob
    {
        double d;
        std::uint64_t u;
        bool b;
    };
    Blob sent{3.14159, 0xdeadbeefcafe1234ull, true};
    ChildResult r = runInChild(
        [&](int fd) { writeAll(fd, &sent, sizeof(sent)); }, 0.0);
    ASSERT_EQ(r.status, ChildResult::Status::kOk);
    ASSERT_EQ(r.payload.size(), sizeof(Blob));
    Blob got{};
    std::memcpy(&got, r.payload.data(), sizeof(Blob));
    EXPECT_EQ(got.d, sent.d);
    EXPECT_EQ(got.u, sent.u);
    EXPECT_EQ(got.b, sent.b);
}

TEST(Proc, ExceptionBecomesExceptionExit)
{
    ChildResult r = runInChild(
        [](int) { throw std::runtime_error("boom"); }, 0.0);
    ASSERT_EQ(r.status, ChildResult::Status::kExited);
    EXPECT_EQ(r.code, kChildExceptionExit);
    EXPECT_FALSE(r.ok());
}

TEST(Proc, CrashIsReportedAsSignal)
{
    // Restore the default action first: a sanitizer runtime installs
    // its own SEGV handler, which would turn the crash into an exit.
    ChildResult r = runInChild(
        [](int) {
            std::signal(SIGSEGV, SIG_DFL);
            std::raise(SIGSEGV);
        },
        0.0);
    ASSERT_EQ(r.status, ChildResult::Status::kSignaled);
    EXPECT_EQ(r.code, SIGSEGV);
    EXPECT_NE(r.describe().find("signal"), std::string::npos);
}

TEST(Proc, HungChildIsKilledOnDeadline)
{
    ChildResult r = runInChild(
        [](int) {
            // Hang well past the budget; SIGKILL must end this.
            for (;;)
                ::sleep(10);
        },
        100.0);
    ASSERT_EQ(r.status, ChildResult::Status::kTimeout);
    EXPECT_EQ(r.describe(), "timeout");
}

TEST(Proc, SlowWriterWithinDeadlineStillDelivers)
{
    ChildResult r = runInChild(
        [](int fd) {
            ::usleep(20 * 1000);
            writeAll(fd, "late", 4);
        },
        5000.0);
    ASSERT_EQ(r.status, ChildResult::Status::kOk);
    EXPECT_EQ(r.payload, "late");
}

TEST(Proc, ConcurrentChildrenDoNotInterfere)
{
    constexpr int kThreads = 8;
    std::vector<std::thread> pool;
    std::vector<ChildResult> results(kThreads);
    for (int t = 0; t < kThreads; t++) {
        pool.emplace_back([t, &results] {
            results[static_cast<std::size_t>(t)] = runInChild(
                [t](int fd) {
                    std::string msg = "worker-" + std::to_string(t);
                    writeAll(fd, msg.data(), msg.size());
                },
                10000.0);
        });
    }
    for (auto &th : pool)
        th.join();
    for (int t = 0; t < kThreads; t++) {
        ASSERT_TRUE(results[static_cast<std::size_t>(t)].ok());
        EXPECT_EQ(results[static_cast<std::size_t>(t)].payload,
                  "worker-" + std::to_string(t));
    }
}

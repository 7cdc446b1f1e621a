#include "common/parallel.hh"

#include <sched.h>

#include <atomic>
#include <exception>
#include <mutex>
#include <thread>
#include <vector>

namespace oenet {

int
hardwareJobs()
{
    // The affinity mask, not the machine: under taskset or a cpuset a
    // process may run on fewer CPUs than hardware_concurrency() counts,
    // and threads beyond them only time-slice.
    cpu_set_t allowed;
    CPU_ZERO(&allowed);
    if (sched_getaffinity(0, sizeof(allowed), &allowed) == 0) {
        int n = CPU_COUNT(&allowed);
        if (n > 0)
            return n;
    }
    unsigned n = std::thread::hardware_concurrency();
    return n == 0 ? 1 : static_cast<int>(n);
}

int
effectiveJobs(int jobs, std::size_t items)
{
    if (jobs <= 0)
        jobs = hardwareJobs();
    if (items < static_cast<std::size_t>(jobs))
        jobs = static_cast<int>(items);
    return jobs < 1 ? 1 : jobs;
}

void
parallelFor(std::size_t n, int jobs,
            const std::function<void(std::size_t, int)> &fn)
{
    if (n == 0)
        return;
    jobs = effectiveJobs(jobs, n);

    if (jobs == 1) {
        for (std::size_t i = 0; i < n; i++)
            fn(i, 0);
        return;
    }

    std::atomic<std::size_t> next{0};
    std::exception_ptr error;
    std::mutex errorMutex;

    auto worker = [&](int id) {
        for (;;) {
            std::size_t i = next.fetch_add(1, std::memory_order_relaxed);
            if (i >= n)
                return;
            try {
                fn(i, id);
            } catch (...) {
                std::lock_guard<std::mutex> lock(errorMutex);
                if (!error)
                    error = std::current_exception();
                // Drain the queue so siblings finish promptly.
                next.store(n, std::memory_order_relaxed);
                return;
            }
        }
    };

    std::vector<std::thread> pool;
    pool.reserve(static_cast<std::size_t>(jobs));
    for (int id = 0; id < jobs; id++)
        pool.emplace_back(worker, id);
    for (auto &t : pool)
        t.join();

    if (error)
        std::rethrow_exception(error);
}

} // namespace oenet

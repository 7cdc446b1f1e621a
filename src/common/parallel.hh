/**
 * @file
 * Minimal worker-pool primitive shared by everything that fans
 * independent work items across threads (the sweep runner above all).
 *
 * Design rules that keep parallel runs bit-identical to serial ones:
 *
 *  - work items must be self-contained (no shared mutable state);
 *  - the *assignment* of items to threads is dynamic (an atomic
 *    counter), but nothing about an item's execution may depend on
 *    which worker ran it or in what order;
 *  - jobs == 1 runs everything inline on the calling thread — the
 *    exact serial behavior, no pool involved.
 */

#ifndef OENET_COMMON_PARALLEL_HH
#define OENET_COMMON_PARALLEL_HH

#include <cstddef>
#include <functional>

namespace oenet {

/** Worker count a "use the hardware" request resolves to (>= 1): the
 *  CPUs the calling thread may run on (its affinity mask), else
 *  std::thread::hardware_concurrency(). */
int hardwareJobs();

/** Resolve a --jobs request against @p items work items: 0 (or any
 *  non-positive value) means hardwareJobs(); never more threads than
 *  items; at least 1. */
int effectiveJobs(int jobs, std::size_t items);

/**
 * Run fn(index, worker) for every index in [0, n), sharded across
 * effectiveJobs(jobs, n) threads. Indices are claimed from a shared
 * atomic counter, so long items do not stall the queue behind them.
 * @p worker is in [0, jobs) and is stable for the duration of one
 * call — use it to index per-worker accumulators. Blocks until all
 * items finish; the first exception thrown by any item is rethrown.
 */
void parallelFor(std::size_t n, int jobs,
                 const std::function<void(std::size_t index, int worker)> &fn);

} // namespace oenet

#endif // OENET_COMMON_PARALLEL_HH

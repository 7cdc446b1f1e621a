/**
 * @file
 * A statistical CPU profiler to load into any program with LD_PRELOAD.
 *
 * While the process runs, ITIMER_PROF fires every millisecond of its
 * CPU time and the handler records the interrupted instruction pointer.
 * At exit the library writes `oenet-prof.<pid>.txt` in the working
 * directory: the sample addresses, then a copy of /proc/self/maps, which
 * tools/prof/symbolize.py needs to map each address back to its object
 * and source line.
 *
 *   LD_PRELOAD=build/tools/prof/liboenet_sampler.so PROGRAM ARGS...
 *   python3 tools/prof/symbolize.py oenet-prof.<pid>.txt
 *
 * Addresses only, no call stacks: self time by function is what a
 * perf change needs to name its layer. Build the profiled program with
 * -g for line-level reports. Not for sanitizer builds, whose runtimes
 * must load first and refuse a preloaded library.
 */

#include <atomic>
#include <csignal>
#include <cstdint>
#include <cstdio>
#include <sys/time.h>
#include <ucontext.h>
#include <unistd.h>

namespace {

constexpr long kPeriodUs = 1000; ///< 1 kHz of process CPU time
/** About 17 min of CPU time; later samples are counted, not kept.
 *  Untouched pages of the buffer cost no memory. */
constexpr std::size_t kMaxSamples = std::size_t{1} << 20;

std::uintptr_t samples[kMaxSamples];
std::atomic<std::size_t> taken{0}; // handlers may run on several threads

void
onProf(int, siginfo_t *, void *context)
{
    const auto &mc = static_cast<ucontext_t *>(context)->uc_mcontext;
#if defined(__x86_64__)
    auto pc = static_cast<std::uintptr_t>(mc.gregs[REG_RIP]);
#elif defined(__aarch64__)
    auto pc = static_cast<std::uintptr_t>(mc.pc);
#else
#error "sampler: no program-counter accessor for this architecture"
#endif
    std::size_t i = taken.fetch_add(1, std::memory_order_relaxed);
    if (i < kMaxSamples)
        samples[i] = pc;
}

__attribute__((constructor)) void
startSampling()
{
    struct sigaction sa = {};
    sa.sa_sigaction = onProf;
    sa.sa_flags = SA_SIGINFO | SA_RESTART;
    sigemptyset(&sa.sa_mask);
    sigaction(SIGPROF, &sa, nullptr);
    itimerval period = {{0, kPeriodUs}, {0, kPeriodUs}};
    setitimer(ITIMER_PROF, &period, nullptr);
}

__attribute__((destructor)) void
writeSamples()
{
    itimerval off = {};
    setitimer(ITIMER_PROF, &off, nullptr);
    std::size_t n = taken.load();
    std::size_t kept = n < kMaxSamples ? n : kMaxSamples;

    char path[64];
    std::snprintf(path, sizeof path, "oenet-prof.%ld.txt",
                  static_cast<long>(getpid()));
    std::FILE *out = std::fopen(path, "w");
    if (out == nullptr) {
        std::perror("sampler: cannot write profile");
        return;
    }
    std::fprintf(out, "samples %zu %zu\n", kept, n);
    for (std::size_t i = 0; i < kept; i++)
        std::fprintf(out, "%zx\n", static_cast<std::size_t>(samples[i]));
    std::fprintf(out, "maps\n");
    if (std::FILE *maps = std::fopen("/proc/self/maps", "r")) {
        char buf[4096];
        std::size_t len;
        while ((len = std::fread(buf, 1, sizeof buf, maps)) > 0)
            std::fwrite(buf, 1, len, out);
        std::fclose(maps);
    }
    std::fclose(out);
    std::fprintf(stderr, "sampler: %zu samples -> %s\n", n, path);
}

} // namespace

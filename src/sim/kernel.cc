#include "sim/kernel.hh"

#include <atomic>
#include <bit>
#include <memory>
#include <utility>

#include "common/log.hh"

namespace oenet {

thread_local Kernel::Domain *Kernel::tlsDomain_ = nullptr;

namespace {

/** One spin-wait iteration: cheap CPU hint first, OS yield once the
 *  wait is clearly longer than a pipeline hiccup. */
inline void
spinPause(int &spins)
{
    if (++spins < 1024) {
#if defined(__x86_64__) || defined(__i386__)
        __builtin_ia32_pause();
#elif defined(__aarch64__)
        asm volatile("yield" ::: "memory");
#endif
    } else {
        std::this_thread::yield();
    }
}

} // namespace

Kernel::Kernel(int shards, bool idle_elision)
    : idleElision_(idle_elision), shards_(shards)
{
    if (shards < 1)
        panic("Kernel: shards must be >= 1");
    for (int d = 0; d <= shards; d++) {
        domains_.push_back(std::make_unique<Domain>());
        domains_.back()->index = d;
    }
    // The driving thread runs shard domain 1's phase itself, so one
    // shard needs no threads at all. Domains 2..N each get a worker,
    // started by the first parallel phase (step), so building a system
    // starts none.
}

Kernel::~Kernel()
{
    if (!workers_.empty()) {
        quit_.store(true, std::memory_order_relaxed);
        phaseGen_.fetch_add(1, std::memory_order_release);
        for (auto &w : workers_)
            w.join();
    }
}

void
Kernel::addTicking(Ticking *component)
{
    if (!component)
        panic("Kernel::addTicking: null component");
    if (component->kernel_ && component->kernel_ != this)
        panic("Kernel::addTicking: component already registered "
              "with another kernel");
    component->kernel_ = this;
    component->tickOrder_ = static_cast<std::uint32_t>(ticking_.size());
    component->domainIdx_ = 0;
    component->asleep_ = false;
    component->pendingWake_ = kNeverCycle;
    ticking_.push_back(component);
    layoutDirty_ = true;
}

void
Kernel::relayout()
{
    for (auto &dom : domains_) {
        dom->members.clear();
        dom->awakeCount = 0;
    }
    // Registration order is tick order, so appending keeps every
    // member list sorted.
    for (Ticking *t : ticking_) {
        Domain &dom = *domains_[t->domainIdx_];
        t->slot_ = static_cast<std::uint32_t>(dom.members.size());
        dom.members.push_back(t);
    }
    for (auto &dom : domains_) {
        dom->awake.assign((dom->members.size() + 63) / 64, 0);
        for (Ticking *t : dom->members) {
            if (!t->asleep_) {
                dom->awake[t->slot_ / 64] |= 1ull << (t->slot_ % 64);
                dom->awakeCount++;
            }
        }
    }
    layoutDirty_ = false;
}

void
Kernel::setDomain(Ticking *component, int domain)
{
    if (!component || component->kernel_ != this)
        panic("Kernel::setDomain: component not registered here");
    if (domain < 0 || domain > shards_)
        panic("Kernel::setDomain: domain %d out of range [0, %d]",
              domain, shards_);
    if (now_ != 0)
        panic("Kernel::setDomain: must run before the first step");
    component->domainIdx_ = static_cast<std::uint16_t>(domain);
    layoutDirty_ = true;
}

void
Kernel::addPostPass(std::function<void(Cycle)> hook)
{
    postPass_.push_back(std::move(hook));
}

int
Kernel::shardPassDomain()
{
    return tlsDomain_->index;
}

std::uint32_t
Kernel::shardPassOrder()
{
    return tlsDomain_->passOrder;
}

void
Kernel::setShardPassOrder(std::uint32_t order)
{
    if (tlsDomain_ != nullptr)
        tlsDomain_->passOrder = order;
}

std::size_t
Kernel::activeCount() const
{
    std::size_t n = 0;
    if (layoutDirty_) {
        for (const Ticking *t : ticking_)
            n += t->asleep_ ? 0 : 1;
        return n;
    }
    for (const auto &dom : domains_)
        n += dom->awakeCount;
    return n;
}

void
Kernel::step()
{
    if (layoutDirty_)
        relayout();
    if (now_ == nextEpoch_) {
        epochHook_(now_);
        nextEpoch_ += epochInterval_;
    }
    events_.runDue(now_);
    // Serial phase: domain 0 on the driving thread.
    runDomainPass(*domains_[0], now_);
    if (!shardsQuiet()) {
        if (shards_ == 1) {
            runShardPhase(*domains_[1], now_);
        } else {
            if (workers_.empty()) {
                for (int d = 2; d <= shards_; d++)
                    workers_.emplace_back([this, d] { workerLoop(d); });
            }
            phaseCycle_ = now_;
            phaseDone_.store(0, std::memory_order_relaxed);
            phaseGen_.fetch_add(1, std::memory_order_release);
            runShardPhase(*domains_[1], now_);
            const int expected = shards_ - 1;
            int spins = 0;
            while (phaseDone_.load(std::memory_order_acquire) < expected)
                spinPause(spins);
        }
        for (auto &hook : postPass_)
            hook(now_);
    }
    now_++;
}

void
Kernel::runDomainPass(Domain &dom, Cycle now)
{
    if (!idleElision_) {
        for (Ticking *t : dom.members) {
            dom.passOrder = t->tickOrder_;
            t->tick(now);
        }
        return;
    }
    // Admit every component whose timed wake is due. Entries are
    // lazily deleted: pendingWake_ is the authority, so a heap entry
    // that was superseded (component woke earlier and re-armed later)
    // is simply skipped.
    while (!dom.wakeHeap.empty() && dom.wakeHeap.top().at <= now) {
        Ticking *c = dom.wakeHeap.top().component;
        dom.wakeHeap.pop();
        if (c->asleep_ && c->pendingWake_ <= now)
            admit(dom, c);
    }
    dom.inTickPass = true;
    // Walk the awake bits in slot (= tick) order. Each word is re-read
    // after every tick: a wake edge may set a bit mid-pass, but only
    // past the cursor (see wakeSleeping), so `done` masks exactly the
    // slots already visited.
    const std::size_t words = dom.awake.size();
    for (std::size_t w = 0; w < words; w++) {
        std::uint64_t done = 0;
        for (;;) {
            std::uint64_t bits = dom.awake[w] & ~done;
            if (bits == 0)
                break;
            int b = std::countr_zero(bits);
            done = (2ull << b) - 1; // b == 63 wraps to all ones
            auto slot = static_cast<std::uint32_t>(w * 64 +
                                                   static_cast<unsigned>(b));
            Ticking *t = dom.members[slot];
            dom.cursor = slot;
            dom.passOrder = t->tickOrder_;
            t->tick(now);
            Cycle wake = t->nextWakeCycle(now);
            // Park hysteresis: a component due again at now+2 would
            // pay a heap push and pop just to skip a single cycle;
            // ticking it through the gap is cheaper. The extra tick is
            // a no-op by the quiescence contract (elision off ticks
            // everything every cycle and stays byte-identical), so
            // output is unchanged.
            if (wake > now + 2) {
                t->asleep_ = true;
                t->pendingWake_ = wake;
                dom.awake[w] &= ~(1ull << b);
                dom.awakeCount--;
                if (wake != kNeverCycle)
                    dom.wakeHeap.push(WakeEntry{wake, t});
            }
        }
    }
    dom.inTickPass = false;
}

void
Kernel::runShardPhase(Domain &dom, Cycle now)
{
    tlsDomain_ = &dom;
    runDomainPass(dom, now);
    tlsDomain_ = nullptr;
}

bool
Kernel::shardsQuiet() const
{
    if (!idleElision_)
        return false;
    for (int d = 1; d <= shards_; d++) {
        const Domain &dom = *domains_[d];
        if (dom.awakeCount != 0)
            return false;
        // A stale heap head (superseded wake) conservatively runs the
        // phase; the domain's own admit loop then discards it.
        if (!dom.wakeHeap.empty() && dom.wakeHeap.top().at <= now_)
            return false;
    }
    return true;
}

void
Kernel::workerLoop(int domain_index)
{
    std::uint64_t seen = 0;
    for (;;) {
        int spins = 0;
        while (phaseGen_.load(std::memory_order_acquire) == seen)
            spinPause(spins);
        seen++;
        if (quit_.load(std::memory_order_relaxed))
            return;
        runShardPhase(*domains_[domain_index], phaseCycle_);
        phaseDone_.fetch_add(1, std::memory_order_release);
    }
}

void
Kernel::admit(Domain &dom, Ticking *component)
{
    component->asleep_ = false;
    component->pendingWake_ = kNeverCycle;
    dom.awake[component->slot_ / 64] |= 1ull << (component->slot_ % 64);
    dom.awakeCount++;
}

void
Kernel::wakeSleeping(Ticking *component, Cycle at)
{
    Domain &dom = *domains_[component->domainIdx_];
    if (tlsDomain_ && tlsDomain_ != &dom)
        panic("Kernel: cross-shard wake of component %u from domain %d "
              "during a parallel pass",
              component->tickOrder_, tlsDomain_->index);
    if (at <= now_) {
        // Due immediately. Mid-pass we may only insert past the
        // cursor; a wake aimed at an already-passed position ticks
        // next cycle instead — exactly when an always-awake component
        // would first observe the time-tagged interaction.
        if (!dom.inTickPass || component->slot_ > dom.cursor) {
            admit(dom, component);
            return;
        }
        at = now_ + 1;
    }
    if (at < component->pendingWake_) {
        component->pendingWake_ = at;
        dom.wakeHeap.push(WakeEntry{at, component});
    }
}

void
Kernel::run(Cycle cycles)
{
    for (Cycle i = 0; i < cycles; i++)
        step();
}

void
Kernel::setEpochHook(Cycle interval, std::function<void(Cycle)> hook)
{
    if (interval == 0 || !hook) {
        epochHook_ = nullptr;
        epochInterval_ = 0;
        nextEpoch_ = kNeverCycle;
        return;
    }
    epochHook_ = std::move(hook);
    epochInterval_ = interval;
    nextEpoch_ = now_ + interval;
}

void
Kernel::schedulePeriodic(Cycle first, Cycle period,
                         std::function<void(Cycle)> action)
{
    events_.schedulePeriodic(first, period, std::move(action));
}

} // namespace oenet

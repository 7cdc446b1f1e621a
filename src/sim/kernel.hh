/**
 * @file
 * Simulation kernel: owns the current cycle, the event queue, and the
 * ordered list of components ticked every cycle.
 *
 * Tick protocol per cycle t:
 *   1. the epoch hook (if due) observes the state at the boundary;
 *   2. periodic events due at t fire (control plane: policy windows,
 *      laser epochs, on/off wake probes, thermal epochs);
 *   3. every *active* component of the serial domain ticks, in
 *      registration order;
 *   4. every shard domain's active components tick (the parallel
 *      phase), then the post-pass hooks run.
 *
 * Cross-component interactions are time-tagged (link arrival cycles,
 * credit return cycles), so results do not depend on registration order;
 * the fixed order only pins down RNG-free determinism.
 *
 * Idle elision (on by default, fixed at construction) removes quiescent
 * components from the per-cycle pass: after each tick the kernel asks
 * nextWakeCycle(now), and a component answering later than now+1 is
 * parked until that cycle or until an explicit wake edge (wakeAt)
 * pulls it in earlier. A parked component's tick would have been a
 * no-op every skipped cycle, so the simulated outcome — every byte of
 * every manifest and trace — is identical to ticking everything; see
 * DESIGN.md section 9 for the quiescence invariants each component
 * maintains.
 *
 * Every kernel runs phased: the per-cycle pass is split into tick
 * domains, fixed at construction. Domain 0 ticks serially on the
 * driving thread (the traffic pump and anything else that touches
 * global state, and every component of a bare Kernel); domains 1..N
 * are shards whose passes run concurrently, one thread per shard,
 * separated by a barrier every cycle (the conservative-lookahead
 * quantum degenerates to one cycle here because credits apply at now+1
 * and the minimum link propagation is one cycle). Components in
 * different shards may only interact through phase-separated boundary
 * queues, published between phases by post-pass hooks on the driving
 * thread; see DESIGN.md section 11 and docs/DETERMINISM.md for the full
 * contract. Each domain keeps its own awake set and wake heap, so idle
 * elision doubles as the per-shard work queue.
 *
 * Admitting and parking a component are O(1): a domain keeps its
 * members in tick order with one bit per member marking it awake, so
 * admitting a woken component sets a bit, parking one clears it, and
 * the tick pass walks set bits in ascending order. Timed wakes sit in
 * a binary heap. On a large, lightly loaded fabric most components are
 * parked at any instant and every flit hop wakes and re-parks a few,
 * so this traffic must not cost O(awake).
 */

#ifndef OENET_SIM_KERNEL_HH
#define OENET_SIM_KERNEL_HH

#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <queue>
#include <thread>
#include <vector>

#include "common/types.hh"
#include "sim/event_queue.hh"

namespace oenet {

class Kernel;

/** Interface for components that need per-cycle processing. */
class Ticking
{
  public:
    virtual ~Ticking() = default;
    virtual void tick(Cycle now) = 0;

    /**
     * Earliest future cycle this component could need to tick again,
     * asked by the kernel right after tick(now). Answering now+1 (the
     * default) keeps the component in every cycle's pass; anything
     * later parks it until that cycle (kNeverCycle = indefinitely,
     * until a wake edge). The kernel may tick a component *earlier*
     * than its answer (it keeps now+2 answers active rather than pay
     * the park/re-admit round trip for a one-cycle gap); such ticks
     * must be no-ops — the same quiescence invariant elision-off
     * already demands. A sleeping component must be woken by whoever
     * hands it work (see wakeAt); the kernel never polls it.
     */
    virtual Cycle nextWakeCycle(Cycle now) { return now + 1; }

    /**
     * Wake edge: ensure this component ticks at cycle @p at (or the
     * next executable cycle if @p at has passed). No-op while the
     * component is active — an active component re-arms itself from
     * its own state via nextWakeCycle, which is always at least as
     * accurate as any external hint. During a sharded parallel pass a
     * wake may only target a component of the calling thread's own
     * domain (cross-shard wakes go through the boundary queues).
     */
    void wakeAt(Cycle at);

    /** True while parked by the idle-elision scheduler. */
    bool asleep() const { return asleep_; }

  private:
    friend class Kernel;
    Kernel *kernel_ = nullptr;     ///< set by Kernel::addTicking
    std::uint32_t tickOrder_ = 0;  ///< registration index (tick order)
    std::uint32_t slot_ = 0;       ///< position in its domain's members
    std::uint16_t domainIdx_ = 0;  ///< tick domain (0 = serial phase)
    bool asleep_ = false;
    Cycle pendingWake_ = kNeverCycle; ///< authoritative earliest wake
};

class Kernel
{
  public:
    /**
     * A kernel with @p shards shard domains (1..shards) beside the
     * serial domain 0, and idle elision on or off for its whole life;
     * both settings give byte-identical simulations. Components start
     * in domain 0; setDomain moves shard-owned ones before the first
     * step. One shard keeps everything on the driving thread with the
     * exact same phase structure, which is what makes output
     * byte-identical at any shard count; more run shards-1 worker
     * threads, started by the first parallel phase and joined by the
     * destructor.
     */
    explicit Kernel(int shards = 1, bool idle_elision = true);
    ~Kernel();

    Kernel(const Kernel &) = delete;
    Kernel &operator=(const Kernel &) = delete;

    /** Register a component; the kernel does not take ownership. */
    void addTicking(Ticking *component);

    /** Advance one cycle: fire due events, tick active components. */
    void step();

    /** Advance @p cycles cycles. */
    void run(Cycle cycles);

    /** Schedule @p action every @p period cycles starting at @p first.
     *  The closure is stored once in the event queue and re-armed in
     *  place — no per-firing allocation. */
    void schedulePeriodic(Cycle first, Cycle period,
                          std::function<void(Cycle)> action);

    /**
     * Install the epoch hook: @p hook runs at the start of every step
     * whose cycle is a whole multiple of @p interval after the current
     * cycle (first firing one interval from now), *before* that
     * cycle's events and ticks — i.e. it observes the state exactly as
     * of the epoch boundary. One hook at a time; interval 0 (or a null
     * hook) uninstalls it. Used for the windowed-metrics snapshots of
     * the trace layer; unlike schedulePeriodic it costs one branch per
     * step and nothing in the event queue.
     */
    void setEpochHook(Cycle interval, std::function<void(Cycle)> hook);

    // ------------------------------------------------------------------
    // Sharded execution
    // ------------------------------------------------------------------

    /** Shard domains, as constructed. */
    int shardCount() const { return shards_; }

    /** Move @p component to @p domain (0 = serial, 1..shardCount()).
     *  Configuration-time only: call before the first step. O(1); the
     *  domains' member lists are rebuilt once, at the next step. */
    void setDomain(Ticking *component, int domain);

    /** Append a post-pass hook: runs on the driving thread after the
     *  cycle's parallel phase completes (boundary publishes, trace
     *  flushes, deferred-sink replays), in registration order. A wake
     *  a hook issues for the next cycle keeps that cycle's parallel
     *  phase from being skipped. */
    void addPostPass(std::function<void(Cycle)> hook);

    /**
     * True on a thread currently executing a shard's tick pass.
     * Emission sites that must not write shared sinks mid-pass (trace
     * events, packet-ejection callbacks) test this and defer through
     * per-domain buffers keyed by shardPassOrder(); see
     * docs/DETERMINISM.md.
     */
    static bool inShardPass() { return tlsDomain_ != nullptr; }

    /** Domain index of the shard pass running on this thread.
     *  @pre inShardPass(). */
    static int shardPassDomain();

    /** tickOrder of the component currently ticking on this thread,
     *  unless it re-keyed its emissions with setShardPassOrder.
     *  Deferred emissions sort by this key, which reconstructs the
     *  canonical serial order. @pre inShardPass(). */
    static std::uint32_t shardPassOrder();

    /** Re-key the current tick's later emissions with @p order, for a
     *  component that runs work another component's tick order names
     *  (a router's boundary receiver walk). The key holds until the
     *  next component's tick; a no-op outside a shard pass. */
    static void setShardPassOrder(std::uint32_t order);

    /** Components in the per-cycle pass right now (diagnostics). */
    std::size_t activeCount() const;
    std::size_t tickingCount() const { return ticking_.size(); }

    Cycle now() const { return now_; }

  private:
    friend class Ticking;

    struct WakeEntry
    {
        Cycle at;
        Ticking *component;
    };
    struct WakeLater
    {
        bool operator()(const WakeEntry &a, const WakeEntry &b) const
        {
            return a.at > b.at;
        }
    };

    /**
     * One tick domain: a slice of the registered components with its
     * own awake set, wake heap, and pass state. Shard domains are only
     * touched by their own thread during the parallel phase and by the
     * driving thread between phases.
     */
    struct Domain
    {
        int index = 0;
        /** All components in tick order; a component's slot_ is its
         *  index here. */
        std::vector<Ticking *> members;
        /** Awake set: bit slot_ % 64 of word slot_ / 64 is set iff
         *  members[slot_] is in the per-cycle pass. */
        std::vector<std::uint64_t> awake;
        std::size_t awakeCount = 0;
        /** Timed wakes; lazily deleted — Ticking::pendingWake_ is the
         *  authority, stale entries are skipped on pop. */
        std::priority_queue<WakeEntry, std::vector<WakeEntry>, WakeLater>
            wakeHeap;
        bool inTickPass = false;
        std::uint32_t cursor = 0;    ///< slot of the component mid-tick
        std::uint32_t passOrder = 0; ///< emission key of the tick
    };

    /** Rebuild every domain's member list, slots and awake set from
     *  the registration order and each component's domain and sleep
     *  state. Runs at the first step after addTicking/setDomain. */
    void relayout();

    /** Re-admit a parked component into its domain's awake set. */
    void admit(Domain &dom, Ticking *component);

    /** Handle Ticking::wakeAt for a parked component. */
    void wakeSleeping(Ticking *component, Cycle at);

    /** One domain's tick pass at cycle @p now (elision-aware). */
    void runDomainPass(Domain &dom, Cycle now);

    /** One shard's parallel phase: its tick pass, with the thread
     *  marked as inside a shard pass. */
    void runShardPhase(Domain &dom, Cycle now);

    /** True if every shard domain's parallel phase would be a no-op. */
    bool shardsQuiet() const;

    void workerLoop(int domain_index);

    Cycle now_ = 0;
    EventQueue events_;
    std::vector<Ticking *> ticking_; ///< all components, registration order
    std::vector<std::unique_ptr<Domain>> domains_; ///< [0] = serial

    const bool idleElision_;
    const int shards_;
    bool layoutDirty_ = false; ///< members/slots stale (see relayout)

    // Epoch hook (metrics snapshots).
    std::function<void(Cycle)> epochHook_;
    Cycle epochInterval_ = 0;
    Cycle nextEpoch_ = kNeverCycle;

    // Post-pass hooks (driving thread, after the parallel phase).
    std::vector<std::function<void(Cycle)>> postPass_;

    // Worker synchronization (shards > 1): a generation counter
    // releases the workers into a phase, a done counter is the
    // barrier out of it. Spin-based — a cycle is far shorter than any
    // blocking primitive's round trip, and blocking after a bounded
    // spin measured slower (EXPERIMENTS.md, "Sharded kernel runbook").
    std::vector<std::thread> workers_; ///< started by the first phase
    std::atomic<std::uint64_t> phaseGen_{0};
    std::atomic<int> phaseDone_{0};
    std::atomic<bool> quit_{false};
    Cycle phaseCycle_ = 0; ///< published cycle (ordered by phaseGen_)

    static thread_local Domain *tlsDomain_;
};

inline void
Ticking::wakeAt(Cycle at)
{
    if (asleep_)
        kernel_->wakeSleeping(this, at);
}

} // namespace oenet

#endif // OENET_SIM_KERNEL_HH

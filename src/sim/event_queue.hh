/**
 * @file
 * Periodic event queue for the cycle-driven kernel.
 *
 * The oenet kernel is cycle-driven for the data path (routers tick every
 * cycle), but the control plane acts on fixed cadences — the policy
 * window, the laser epoch, the on/off wake probe and the thermal epoch
 * — and those are scheduled here so nothing polls for them. Every entry
 * is periodic: its closure is stored once and the same entry is
 * re-armed after each firing, so a policy window that fires a million
 * times allocates exactly one std::function. Entries due in the same
 * cycle fire in the order they were armed (a monotone sequence number
 * breaks ties), which keeps runs deterministic.
 */

#ifndef OENET_SIM_EVENT_QUEUE_HH
#define OENET_SIM_EVENT_QUEUE_HH

#include <cstdint>
#include <functional>
#include <memory>
#include <queue>
#include <vector>

#include "common/types.hh"

namespace oenet {

class EventQueue
{
  public:
    using PeriodicAction = std::function<void(Cycle)>;

    /**
     * Schedule @p action to run at @p first and every @p period cycles
     * thereafter, receiving the firing cycle. Each firing runs the
     * action and then re-arms the entry, so at its next cycle it fires
     * after every entry armed earlier for that cycle.
     * @pre first >= the cycle passed to the last runDue() call.
     */
    void schedulePeriodic(Cycle first, Cycle period,
                          PeriodicAction action);

    /** Run every entry due at or before @p now, in (cycle, order)
     *  order. An action may arm further entries, including for
     *  @p now. */
    void runDue(Cycle now);

    bool empty() const { return heap_.empty(); }

  private:
    /** Persistent state for one schedulePeriodic call; lives for the
     *  queue's lifetime at a stable address referenced by heap
     *  entries. */
    struct Periodic
    {
        Cycle period;
        PeriodicAction action;
    };

    struct Entry
    {
        Cycle when;
        std::uint64_t seq;
        Periodic *periodic; ///< re-armed in place after each firing
    };

    struct Later
    {
        bool operator()(const Entry &a, const Entry &b) const
        {
            if (a.when != b.when)
                return a.when > b.when;
            return a.seq > b.seq;
        }
    };

    std::priority_queue<Entry, std::vector<Entry>, Later> heap_;
    std::vector<std::unique_ptr<Periodic>> periodics_;
    std::uint64_t nextSeq_ = 0;
    Cycle lastRun_ = 0;
};

} // namespace oenet

#endif // OENET_SIM_EVENT_QUEUE_HH

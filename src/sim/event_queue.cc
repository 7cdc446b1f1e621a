#include "sim/event_queue.hh"

#include <utility>

#include "common/log.hh"

namespace oenet {

void
EventQueue::schedulePeriodic(Cycle first, Cycle period,
                             PeriodicAction action)
{
    if (period == 0)
        panic("EventQueue::schedulePeriodic: zero period");
    if (first < lastRun_)
        panic("EventQueue: scheduling into the past (%llu < %llu)",
              static_cast<unsigned long long>(first),
              static_cast<unsigned long long>(lastRun_));
    periodics_.push_back(
        std::make_unique<Periodic>(Periodic{period, std::move(action)}));
    heap_.push(Entry{first, nextSeq_++, periodics_.back().get()});
}

void
EventQueue::runDue(Cycle now)
{
    lastRun_ = now;
    while (!heap_.empty() && heap_.top().when <= now) {
        Entry e = heap_.top();
        heap_.pop();
        // Action first, then re-arm: an entry the action arms for the
        // same next cycle fires before this one does.
        e.periodic->action(e.when);
        heap_.push(Entry{e.when + e.periodic->period, nextSeq_++,
                         e.periodic});
    }
}

} // namespace oenet

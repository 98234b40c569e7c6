#include "sim/event_queue.hh"

#include "common/log.hh"
#include "common/replay_probe.hh"

namespace killi
{

void
EventQueue::schedule(Tick when, Handler handler, void *target,
                     std::uint64_t arg0, std::uint64_t arg1, int priority)
{
    if (when < now)
        panic("EventQueue: scheduling into the past (%llu < %llu)",
              static_cast<unsigned long long>(when),
              static_cast<unsigned long long>(now));
    KTRACE(trace, now, TraceCat::Sim, "sim.schedule", {"when", when},
           {"priority", priority});
    heap.push(Event{when, priority, seqCounter++, handler, target, arg0,
                    arg1});
}

void
EventQueue::setPeriodic(Tick interval, std::function<void()> cb)
{
    periodicInterval = interval;
    periodicCb = interval ? std::move(cb) : nullptr;
    nextPeriodic = now + interval;
}

bool
EventQueue::run(Tick limit)
{
    while (!heap.empty()) {
        const Tick nextEvent = heap.top().when;
        if (periodicCb && nextPeriodic <= nextEvent &&
            nextPeriodic <= limit) {
            now = nextPeriodic;
            KTRACE(trace, now, TraceCat::Sim, "sim.periodic",
                   {"interval", periodicInterval});
            periodicCb();
            nextPeriodic += periodicInterval;
            continue;
        }
        if (nextEvent > limit) {
            now = limit;
            return false;
        }
        // Copy the event out before popping so that its handler may
        // schedule further events safely.
        const Event ev = heap.top();
        heap.pop();
        // The determinism contract (see the header): pops are
        // strictly increasing in (when, priority, seq). Checked
        // unconditionally — assert() is dead under the default
        // RelWithDebInfo NDEBUG build, and a violation here would be
        // a silent nondeterminism source that record-replay would
        // then faithfully reproduce instead of exposing. Three
        // integer compares per event, branch never taken.
        if (executed > 0 &&
            (ev.when < lastPop.when ||
             (ev.when == lastPop.when &&
              (ev.priority < lastPop.priority ||
               (ev.priority == lastPop.priority &&
                ev.seq <= lastPop.seq))))) {
            panic("EventQueue: pop order violated: (%llu, %d, %llu) "
                  "after (%llu, %d, %llu)",
                  static_cast<unsigned long long>(ev.when),
                  ev.priority,
                  static_cast<unsigned long long>(ev.seq),
                  static_cast<unsigned long long>(lastPop.when),
                  lastPop.priority,
                  static_cast<unsigned long long>(lastPop.seq));
        }
        lastPop = {ev.when, ev.priority, ev.seq};
        if (ReplayProbe *probe = replayProbe()) [[unlikely]]
            probe->onEventPop(ev.when, ev.priority, ev.seq);
        now = ev.when;
        ++executed;
        ev.handler(ev.target, ev.arg0, ev.arg1);
    }
    return true;
}

} // namespace killi

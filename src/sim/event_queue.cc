#include "sim/event_queue.hh"

#include <algorithm>
#include <bit>

#include "common/log.hh"
#include "common/replay_probe.hh"

namespace killi
{

void
EventQueue::schedule(Tick when, Handler handler, void *target,
                     std::uint64_t arg0, std::uint64_t arg1)
{
    if (when < now)
        panic("EventQueue: scheduling into the past (%llu < %llu)",
              static_cast<unsigned long long>(when),
              static_cast<unsigned long long>(now));
    KTRACE(trace, now, TraceCat::Sim, "sim.schedule", {"when", when});
    const Event ev{when, seqCounter++, handler, target, arg0, arg1};
    if (when - now >= kWheelSpan) {
        heap.push_back(ev);
        std::push_heap(heap.begin(), heap.end(), Later{});
        return;
    }
    const std::size_t slot = when % kWheelSpan;
    wheel[slot].events.push_back(ev);
    occupied[slot / 64] |= std::uint64_t{1} << (slot % 64);
    ++wheelSize;
}

std::size_t
EventQueue::firstSlot() const
{
    // Pending wheel ticks lie in [now, now + kWheelSpan), so the
    // earliest is the first occupied slot at or after now's, walking
    // round the ring. The bits below now's slot in its word are the
    // ring's far end; the walk meets them again last.
    const std::size_t start = now % kWheelSpan;
    std::size_t word = start / 64;
    std::uint64_t bits = occupied[word] & (~std::uint64_t{0} << (start % 64));
    while (!bits) {
        word = (word + 1) % kWheelWords;
        bits = occupied[word];
    }
    return word * 64 + std::size_t(std::countr_zero(bits));
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
    ReplayProbe *const probe = replayProbe();
    while (wheelSize || !heap.empty()) {
        // The next event is the lesser of the two sources' heads.
        // While the current tick's bucket has events it is the
        // earliest, so the occupancy scan runs once per tick.
        const std::size_t nowSlot = now % kWheelSpan;
        const std::size_t slot =
            wheel[nowSlot].head < wheel[nowSlot].events.size()
                ? nowSlot
                : wheelSize ? firstSlot() : 0;
        Bucket &bucket = wheel[slot];
        const bool fromHeap =
            !heap.empty() &&
            (!wheelSize || Later{}(bucket.events[bucket.head], heap.front()));
        const Event &next =
            fromHeap ? heap.front() : bucket.events[bucket.head];
        const Tick nextEvent = next.when;
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
            now = std::max(now, limit);
            return false;
        }
        // Copy the event out before popping so that its handler may
        // schedule further events safely.
        const Event ev = next;
        if (fromHeap) {
            std::pop_heap(heap.begin(), heap.end(), Later{});
            heap.pop_back();
        } else {
            if (++bucket.head == bucket.events.size()) {
                bucket.events.clear();
                bucket.head = 0;
                occupied[slot / 64] &= ~(std::uint64_t{1} << (slot % 64));
            }
            --wheelSize;
        }
        // The determinism contract (see the header): pops are
        // strictly increasing in (when, seq). Checked unconditionally
        // — assert() is dead under the default RelWithDebInfo NDEBUG
        // build, and a violation here would be a silent
        // nondeterminism source that record-replay would then
        // faithfully reproduce instead of exposing. One Later
        // compare per event, branch never taken.
        if (executed > 0 && !Later{}(ev, lastPop)) {
            panic("EventQueue: pop order violated: (%llu, %llu) "
                  "after (%llu, %llu)",
                  static_cast<unsigned long long>(ev.when),
                  static_cast<unsigned long long>(ev.seq),
                  static_cast<unsigned long long>(lastPop.when),
                  static_cast<unsigned long long>(lastPop.seq));
        }
        lastPop = ev;
        if (probe) [[unlikely]]
            probe->onEventPop(ev.when, ev.seq);
        now = ev.when;
        ++executed;
        ev.handler(ev.target, ev.arg0, ev.arg1);
    }
    return true;
}

} // namespace killi

/**
 * @file
 * Test helper: schedules closures on an EventQueue through its typed
 * event API. Each closure lives in a pool owned by the helper and
 * its event carries the pool index, so tests keep writing lambdas
 * while the queue only ever holds plain typed events.
 */

#ifndef KILLI_TESTS_CLOSURE_EVENTS_HH
#define KILLI_TESTS_CLOSURE_EVENTS_HH

#include <cstdint>
#include <deque>
#include <functional>
#include <type_traits>
#include <utility>

#include "sim/event_queue.hh"

namespace killi
{

static_assert(std::is_trivially_copyable_v<EventQueue::Event>,
              "events are copied by value through the queue");
static_assert(sizeof(EventQueue::Event) == 48,
              "an event is (when, seq), a handler, its target and two "
              "payload words");

class ClosureEvents
{
  public:
    explicit ClosureEvents(EventQueue &queue) : eq(queue) {}

    /** Run @p fn at absolute tick @p when. */
    void
    schedule(Tick when, std::function<void()> fn)
    {
        fns.push_back(std::move(fn));
        eq.schedule(when, &ClosureEvents::fire, this, fns.size() - 1);
    }

    /** Run @p fn @p delta ticks from now. */
    void
    scheduleIn(Tick delta, std::function<void()> fn)
    {
        schedule(eq.curTick() + delta, std::move(fn));
    }

  private:
    static void
    fire(void *self, std::uint64_t index, std::uint64_t)
    {
        // A deque never moves its elements, so the closure may
        // schedule more while it runs.
        static_cast<ClosureEvents *>(self)->fns[index]();
    }

    EventQueue &eq;
    std::deque<std::function<void()>> fns;
};

} // namespace killi

#endif // KILLI_TESTS_CLOSURE_EVENTS_HH

/**
 * @file
 * A minimal discrete-event simulation kernel in the style of gem5's
 * event queue: events are (tick, insertion-order)-ordered typed
 * records.
 *
 * An event is plain data — a handler function pointer, the object it
 * acts on, and two 64-bit payload words — so scheduling and pops
 * copy 48 bytes and, once the queue's storage has grown to the
 * run's peak, allocate nothing. Producers name a member
 * function taking one or two 64-bit words and the kernel adapts it:
 * schedule<&T::m>(when, obj, a, b) runs obj->m(a, b) at @p when.
 *
 * Storage is a timing wheel plus an overflow heap. The wheel is a
 * ring of kWheelSpan per-tick FIFO buckets with an occupancy bitmap;
 * an event fewer than kWheelSpan ticks ahead is appended to its
 * tick's bucket in O(1), and the next non-empty bucket is one
 * count-trailing-zeros away. The current tick's bucket is checked
 * first: while it still holds events it is the earliest (a bucket
 * holds one tick, see below), so a burst of same-tick events pops
 * without the occupancy scan. The simulator's tag, crossbar, L1 and
 * DRAM delays keep nearly every event there (the longest gap in a
 * fig4 campaign is 421 ticks). An event kWheelSpan or more ticks
 * ahead goes to a (when, seq)-ordered binary heap.
 *
 * Determinism contract: events pop in strictly increasing
 * (when, seq) lexicographic order — same-tick events run in
 * insertion (seq) order, *regardless of storage internals*. Each
 * source is already sorted under that order: the heap's comparator
 * orders both fields and seq is unique per event, and a wheel bucket
 * holds one tick's events in seq order (all pending wheel events lie
 * in [now, now + kWheelSpan), so distinct ticks never share a
 * bucket). run() pops the lesser of the two heads, so the merge is
 * exact and nothing migrates between them. run() enforces the
 * contract with an always-on check (it is the foundation the
 * record-replay layer in src/replay verifies runs against). A
 * ReplayProbe (common/replay_probe.hh) installed when run() starts
 * observes every pop of that run.
 */

#ifndef KILLI_SIM_EVENT_QUEUE_HH
#define KILLI_SIM_EVENT_QUEUE_HH

#include <array>
#include <cstdint>
#include <functional>
#include <type_traits>
#include <vector>

#include "common/types.hh"
#include "trace/trace.hh"

namespace killi
{

class EventQueue
{
  public:
    /** What an event does when it pops: act on @p target with the
     *  event's two payload words. */
    using Handler = void (*)(void *target, std::uint64_t arg0,
                             std::uint64_t arg1);

    /** One scheduled event: trivially copyable, ordered by
     *  (when, seq). */
    struct Event
    {
        Tick when;
        std::uint64_t seq;
        Handler handler;
        void *target;
        std::uint64_t arg0;
        std::uint64_t arg1;
    };

    /** Current simulated time. */
    Tick curTick() const { return now; }

    /** Number of events executed so far. */
    std::uint64_t eventsExecuted() const { return executed; }

    /** True iff no events are pending. */
    bool empty() const { return wheelSize == 0 && heap.empty(); }

    /** Ticks the wheel covers: an event scheduled fewer than this
     *  many ticks ahead goes to the wheel, any other event to the
     *  overflow heap. */
    static constexpr Tick kWheelSpan = 512;

    /**
     * Schedule handler(target, arg0, arg1) at absolute time @p when
     * (>= curTick()). Same-tick events run in scheduling order.
     */
    void schedule(Tick when, Handler handler, void *target,
                  std::uint64_t arg0 = 0, std::uint64_t arg1 = 0);

    /** Schedule target->Method(arg0, arg1) at absolute time @p when. */
    template <auto Method, class T>
    void
    schedule(Tick when, T *target, std::uint64_t arg0 = 0,
             std::uint64_t arg1 = 0)
    {
        schedule(when, &invoke<Method, T>, target, arg0, arg1);
    }

    /** Schedule target->Method(arg0, arg1) @p delta ticks from now. */
    template <auto Method, class T>
    void
    scheduleIn(Tick delta, T *target, std::uint64_t arg0 = 0,
               std::uint64_t arg1 = 0)
    {
        schedule(now + delta, &invoke<Method, T>, target, arg0, arg1);
    }

    /**
     * Register a callback fired every @p interval ticks while events
     * remain pending (interval 0 uninstalls). The first firing is at
     * curTick() + interval. A firing that coincides with a scheduled
     * event runs *before* that tick's events, so a stats snapshot at
     * tick T observes the state as of the end of tick T-1. Firings
     * stop with the last event: callers wanting the final state take
     * one explicit sample after run() returns. The periodic hook is
     * not a queued event, so it keeps a plain std::function.
     */
    void setPeriodic(Tick interval, std::function<void()> cb);

    /** Attach a trace sink for sim.* events (nullptr detaches). */
    void setTrace(TraceSink *sink) { trace = sink; }

    /** Run events until the queue drains or @p limit is reached.
     *  Returns true if the queue drained; otherwise curTick() is
     *  max(curTick(), limit), as simulated time never runs
     *  backwards. The thread's ReplayProbe is read once, on entry:
     *  install one around a run, never from inside a handler. */
    bool run(Tick limit = kMaxTick);

  private:
    /** The Handler of target->Method; a one-parameter Method
     *  ignores arg1. */
    template <auto Method, class T>
    static void
    invoke(void *target, std::uint64_t arg0, std::uint64_t arg1)
    {
        T *self = static_cast<T *>(target);
        if constexpr (std::is_invocable_v<decltype(Method), T *,
                                          std::uint64_t, std::uint64_t>)
            (self->*Method)(arg0, arg1);
        else
            (self->*Method)(arg0);
    }

    /** The pop order: true iff @p a pops after @p b. */
    struct Later
    {
        bool
        operator()(const Event &a, const Event &b) const
        {
            return a.when != b.when ? a.when > b.when : a.seq > b.seq;
        }
    };

    static constexpr std::size_t kWheelWords = kWheelSpan / 64;
    static_assert(kWheelSpan % 64 == 0, "whole bitmap words");

    /** One tick's wheel events in seq order; [head, size) are
     *  pending. The vector keeps its capacity across reuse. */
    struct Bucket
    {
        std::vector<Event> events;
        std::size_t head = 0;
    };

    /** Slot of the bucket holding the earliest wheel event; requires
     *  wheelSize > 0. */
    std::size_t firstSlot() const;

    Tick now = 0;
    std::uint64_t seqCounter = 0;
    std::uint64_t executed = 0;
    /** The last popped event, for the pop-order check in run(). */
    Event lastPop{};
    /** Bucket `when % kWheelSpan` holds the wheel events of tick
     *  `when`. */
    std::array<Bucket, kWheelSpan> wheel;
    /** Bit s set iff wheel[s] has pending events. */
    std::array<std::uint64_t, kWheelWords> occupied{};
    std::size_t wheelSize = 0;
    /** Events past the wheel's span: a binary heap under Later
     *  (std::push_heap / std::pop_heap), so front() is the earliest. */
    std::vector<Event> heap;
    Tick periodicInterval = 0;
    Tick nextPeriodic = 0;
    std::function<void()> periodicCb;
    TraceSink *trace = nullptr;
};

} // namespace killi

#endif // KILLI_SIM_EVENT_QUEUE_HH

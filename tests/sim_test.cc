/**
 * @file
 * Tests for the simulation kernel: event ordering and determinism,
 * DRAM latency/occupancy behaviour, and the golden-memory oracle.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <utility>
#include <vector>

#include "sim/dram.hh"
#include "sim/event_queue.hh"
#include "sim/golden.hh"

#include "closure_events.hh"

using namespace killi;

TEST(EventQueueTest, ExecutesInTimeOrder)
{
    EventQueue eq;
    ClosureEvents ev(eq);
    std::vector<int> order;
    ev.schedule(30, [&] { order.push_back(3); });
    ev.schedule(10, [&] { order.push_back(1); });
    ev.schedule(20, [&] { order.push_back(2); });
    EXPECT_TRUE(eq.run());
    EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
    EXPECT_EQ(eq.curTick(), 30u);
}

TEST(EventQueueTest, TiesBreakByPriorityThenInsertion)
{
    EventQueue eq;
    ClosureEvents ev(eq);
    std::vector<int> order;
    ev.schedule(5, [&] { order.push_back(1); }, 0);
    ev.schedule(5, [&] { order.push_back(2); }, -1); // runs first
    ev.schedule(5, [&] { order.push_back(3); }, 0);
    eq.run();
    EXPECT_EQ(order, (std::vector<int>{2, 1, 3}));
}

TEST(EventQueueTest, PopOrderIsTotalOverWhenPrioritySeq)
{
    // The determinism contract (DESIGN.md): pops are strictly
    // increasing in (when, priority, seq), regardless of heap
    // internals or insertion order. Insert a deterministic shuffle
    // of (tick, priority) pairs and check the exact total order.
    EventQueue eq;
    ClosureEvents ev(eq);
    struct Popped
    {
        Tick when;
        int priority;
        std::uint64_t seq;
    };
    std::vector<Popped> pops;
    std::uint64_t seq = 0;
    // A fixed LCG shuffles insertion without platform randomness.
    std::uint64_t lcg = 12345;
    for (int i = 0; i < 64; ++i) {
        lcg = lcg * 6364136223846793005ull + 1442695040888963407ull;
        const Tick when = Tick(10 + (lcg >> 33) % 4);  // 4 tick bins
        const int priority = int((lcg >> 13) % 3) - 1; // -1, 0, 1
        const std::uint64_t mySeq = seq++;
        ev.schedule(when, [&pops, &eq, when, priority, mySeq] {
            EXPECT_EQ(eq.curTick(), when);
            pops.push_back({when, priority, mySeq});
        }, priority);
    }
    eq.run();
    ASSERT_EQ(pops.size(), 64u);
    for (std::size_t i = 1; i < pops.size(); ++i) {
        const Popped &a = pops[i - 1];
        const Popped &b = pops[i];
        const bool increasing =
            a.when != b.when
                ? a.when < b.when
                : a.priority != b.priority ? a.priority < b.priority
                                           : a.seq < b.seq;
        EXPECT_TRUE(increasing)
            << "pop " << i << ": (" << a.when << "," << a.priority
            << "," << a.seq << ") then (" << b.when << ","
            << b.priority << "," << b.seq << ")";
    }
}

TEST(EventQueueTest, SameTickScheduleDuringPopRunsAfterPeers)
{
    // An event scheduled *during* a same-tick pop gets a larger seq
    // than every already-queued peer, so it runs after them — the
    // property replay recordings depend on for stable pop logs.
    EventQueue eq;
    ClosureEvents ev(eq);
    std::vector<int> order;
    ev.schedule(5, [&] {
        order.push_back(1);
        ev.schedule(5, [&] { order.push_back(3); });
    });
    ev.schedule(5, [&] { order.push_back(2); });
    eq.run();
    EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
}

TEST(EventQueueTest, CallbacksMayScheduleMore)
{
    EventQueue eq;
    ClosureEvents ev(eq);
    int fired = 0;
    std::function<void()> chain = [&] {
        if (++fired < 5)
            ev.scheduleIn(2, chain);
    };
    ev.schedule(0, chain);
    eq.run();
    EXPECT_EQ(fired, 5);
    EXPECT_EQ(eq.curTick(), 8u);
}

namespace
{

/** Records the payload words its typed handlers receive. */
struct PayloadTarget
{
    void
    both(std::uint64_t a, std::uint64_t b)
    {
        calls.push_back({a, b});
    }

    void one(std::uint64_t a) { calls.push_back({a, 0}); }

    std::vector<std::pair<std::uint64_t, std::uint64_t>> calls;
};

} // namespace

TEST(EventQueueTest, MemberHandlersReceivePayloadWords)
{
    EventQueue eq;
    PayloadTarget t;
    eq.schedule<&PayloadTarget::both>(4, &t, 7, ~std::uint64_t{0});
    eq.scheduleIn<&PayloadTarget::one>(2, &t, 5, 123); // arg1 unused
    EXPECT_TRUE(eq.run());
    using Call = std::pair<std::uint64_t, std::uint64_t>;
    EXPECT_EQ(t.calls,
              (std::vector<Call>{{5, 0}, {7, ~std::uint64_t{0}}}));
    EXPECT_EQ(eq.eventsExecuted(), 2u);
}

TEST(EventQueueTest, RunHonoursLimit)
{
    EventQueue eq;
    ClosureEvents ev(eq);
    int fired = 0;
    ev.schedule(10, [&] { ++fired; });
    ev.schedule(100, [&] { ++fired; });
    EXPECT_FALSE(eq.run(50));
    EXPECT_EQ(fired, 1);
    EXPECT_EQ(eq.curTick(), 50u);
    EXPECT_TRUE(eq.run());
    EXPECT_EQ(fired, 2);
}

TEST(EventQueueTest, SchedulingIntoThePastPanics)
{
    EventQueue eq;
    ClosureEvents ev(eq);
    ev.schedule(10, [&] {});
    eq.run();
    EXPECT_DEATH(ev.schedule(5, [] {}), "");
}

TEST(DramTest, LatencyApplied)
{
    DramParams p;
    p.latency = 200;
    p.occupancyPerAccess = 4;
    DramModel dram(p);
    EXPECT_EQ(dram.access(0, false, 100), 300u);
}

TEST(DramTest, ChannelOccupancySerializes)
{
    DramParams p;
    p.channels = 1;
    p.latency = 100;
    p.occupancyPerAccess = 4;
    DramModel dram(p);
    const Tick t1 = dram.access(0, false, 0);
    const Tick t2 = dram.access(64, false, 0);
    const Tick t3 = dram.access(128, false, 0);
    EXPECT_EQ(t1, 100u);
    EXPECT_EQ(t2, 104u); // queued behind the first burst
    EXPECT_EQ(t3, 108u);
}

TEST(DramTest, ChannelsInterleaveByLine)
{
    DramParams p;
    p.channels = 2;
    p.latency = 100;
    p.occupancyPerAccess = 4;
    DramModel dram(p);
    const Tick a = dram.access(0, false, 0);   // channel 0
    const Tick b = dram.access(64, false, 0);  // channel 1
    EXPECT_EQ(a, 100u);
    EXPECT_EQ(b, 100u); // no queuing across channels
}

TEST(DramTest, CountsReadsAndWrites)
{
    DramModel dram(DramParams{});
    dram.access(0, false, 0);
    dram.access(0, true, 0);
    dram.access(64, true, 0);
    EXPECT_EQ(dram.reads(), 1u);
    EXPECT_EQ(dram.writes(), 2u);
}

TEST(GoldenMemoryTest, DeterministicContent)
{
    GoldenMemory mem;
    const BitVec a = mem.data(0x1000, 0);
    const BitVec b = mem.data(0x1000, 0);
    EXPECT_EQ(a, b);
    EXPECT_EQ(a.size(), 512u);
}

TEST(GoldenMemoryTest, VersionsChangeContent)
{
    GoldenMemory mem;
    const BitVec v0 = mem.data(0x40, 0);
    EXPECT_EQ(mem.version(0x40), 0u);
    EXPECT_EQ(mem.write(0x40), 1u);
    const BitVec v1 = mem.data(0x40);
    EXPECT_NE(v0, v1);
    EXPECT_EQ(mem.data(0x40, 0), v0); // old versions reproducible
}

TEST(GoldenMemoryTest, DistinctLinesDiffer)
{
    GoldenMemory mem;
    EXPECT_NE(mem.data(0, 0), mem.data(64, 0));
}

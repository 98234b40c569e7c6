/**
 * @file
 * Tests for the simulation kernel: event ordering and determinism
 * (the timing wheel against a reference heap among them), DRAM
 * latency/occupancy behaviour, and the golden-memory oracle.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <functional>
#include <unordered_map>
#include <utility>
#include <vector>

#include "common/replay_probe.hh"
#include "common/rng.hh"
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

TEST(EventQueueTest, PopOrderIsTotalOverWhenSeq)
{
    // The determinism contract (DESIGN.md): pops are strictly
    // increasing in (when, seq), regardless of storage internals or
    // insertion order. Insert a deterministic shuffle of ticks, half
    // of them past the wheel's span, and check the exact total order.
    EventQueue eq;
    ClosureEvents ev(eq);
    std::vector<std::pair<Tick, std::uint64_t>> pops;
    std::uint64_t seq = 0;
    // A fixed LCG shuffles insertion without platform randomness.
    std::uint64_t lcg = 12345;
    for (int i = 0; i < 64; ++i) {
        lcg = lcg * 6364136223846793005ull + 1442695040888963407ull;
        // 4 tick bins: two on the wheel, two in the overflow heap.
        const Tick when =
            Tick(10 + (lcg >> 33) % 4 * EventQueue::kWheelSpan / 2);
        const std::uint64_t mySeq = seq++;
        ev.schedule(when, [&pops, &eq, when, mySeq] {
            EXPECT_EQ(eq.curTick(), when);
            pops.push_back({when, mySeq});
        });
    }
    eq.run();
    ASSERT_EQ(pops.size(), 64u);
    for (std::size_t i = 1; i < pops.size(); ++i) {
        EXPECT_LT(pops[i - 1], pops[i])
            << "pop " << i << ": (" << pops[i - 1].first << ","
            << pops[i - 1].second << ") then (" << pops[i].first << ","
            << pops[i].second << ")";
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

namespace
{

/** Captures the queue's own (when, seq) pop stream. */
struct PopRecorder : ReplayProbe
{
    void onRngDraw(std::uint64_t) override {}

    void
    onEventPop(Tick when, std::uint64_t seq) override
    {
        pops.push_back({when, seq});
    }

    void onTraceRecord(Tick, std::uint32_t, const char *,
                       std::uint64_t) override {}

    std::vector<std::pair<Tick, std::uint64_t>> pops;
};

std::uint64_t
mix(std::uint64_t x)
{
    x += 0x9e3779b97f4a7c15ull;
    x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
    x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
    return x ^ (x >> 31);
}

/**
 * A seeded event script both queues replay: event `id` (which is
 * also its seq, as every schedule goes through the script) has a
 * gap of 0..2000 ticks, biased towards the short gaps the simulator
 * uses and covering the wheel's span edges, and may schedule one
 * child from its handler.
 */
struct Script
{
    std::uint64_t seed;
    std::uint64_t budget;

    Tick
    gap(std::uint64_t id) const
    {
        const std::uint64_t h = mix(seed ^ (id * 3));
        switch (h % 8) {
        case 0:
            return EventQueue::kWheelSpan - 1 + (h >> 8) % 3;
        case 1:
        case 2:
            return (h >> 8) % 2001;
        default:
            return (h >> 8) % 64;
        }
    }

    /** Whether popping event @p id, with @p scheduled events
     *  scheduled so far, schedules a child. */
    bool
    spawns(std::uint64_t id, std::uint64_t scheduled) const
    {
        return scheduled < budget && mix(seed ^ (id * 3 + 2)) % 4 != 0;
    }
};

/** Drives an EventQueue through a Script from inside handlers. */
struct ScriptedQueue
{
    EventQueue eq;
    const Script &script;
    std::uint64_t scheduled = 0;

    explicit ScriptedQueue(const Script &s) : script(s) {}

    void
    add(Tick base)
    {
        const std::uint64_t id = scheduled++;
        eq.schedule(base + script.gap(id), &ScriptedQueue::fire, this, id);
    }

    static void
    fire(void *self, std::uint64_t id, std::uint64_t)
    {
        auto *q = static_cast<ScriptedQueue *>(self);
        if (q->script.spawns(id, q->scheduled))
            q->add(q->eq.curTick());
    }
};

/** The reference: the same Script on a plain binary min-heap. */
std::vector<std::pair<Tick, std::uint64_t>>
referencePops(const Script &script, std::uint64_t initial)
{
    using Key = std::pair<Tick, std::uint64_t>;
    std::vector<Key> q;
    std::uint64_t scheduled = 0;
    const auto add = [&](Tick base) {
        const std::uint64_t id = scheduled++;
        q.push_back({base + script.gap(id), id});
        std::push_heap(q.begin(), q.end(), std::greater<Key>{});
    };
    for (std::uint64_t i = 0; i < initial; ++i)
        add(0);
    std::vector<Key> pops;
    while (!q.empty()) {
        std::pop_heap(q.begin(), q.end(), std::greater<Key>{});
        const Key k = q.back();
        q.pop_back();
        pops.push_back(k);
        if (script.spawns(k.second, scheduled))
            add(k.first);
    }
    return pops;
}

} // namespace

TEST(EventWheelTest, PopStreamMatchesAReferenceHeap)
{
    // Differential check of the wheel + overflow heap against a
    // plain (when, seq) heap, over thousands of events with gaps of
    // 0..2000 ticks and events scheduled from inside handlers. Every
    // third seed drains in run(limit) slices so runs stop and resume
    // mid-wheel.
    for (std::uint64_t seed = 1; seed <= 6; ++seed) {
        const Script script{seed, 6000};
        const std::uint64_t initial = 1500;
        ScriptedQueue sq(script);
        for (std::uint64_t i = 0; i < initial; ++i)
            sq.add(0);
        PopRecorder rec;
        {
            const ScopedReplayProbe probe(&rec);
            if (seed % 3 == 0) {
                Tick limit = 0;
                while (!sq.eq.run(limit)) {
                    EXPECT_EQ(sq.eq.curTick(), limit);
                    limit += 37;
                }
            } else {
                EXPECT_TRUE(sq.eq.run());
            }
        }
        EXPECT_TRUE(sq.eq.empty());
        const auto expected = referencePops(script, initial);
        EXPECT_GT(expected.size(), 4000u);
        ASSERT_EQ(rec.pops.size(), expected.size()) << "seed " << seed;
        EXPECT_TRUE(rec.pops == expected) << "seed " << seed;
        EXPECT_EQ(sq.eq.eventsExecuted(), expected.size());
    }
}

TEST(EventWheelTest, SpanEdgesMergeBySeqAcrossWheelAndHeap)
{
    // At tick 100, gaps of span-1, span and span+1: the first goes
    // to the wheel, the other two to the heap. Events scheduled later
    // for the same ticks land in the wheel and must still run after
    // the heap's earlier-scheduled peers.
    constexpr Tick span = EventQueue::kWheelSpan;
    EventQueue eq;
    ClosureEvents ev(eq);
    std::vector<char> order;
    ev.schedule(100, [&] {
        ev.schedule(100 + span, [&] { order.push_back('A'); });
        ev.schedule(100 + span - 1, [&] { order.push_back('B'); });
        ev.schedule(100 + span + 1, [&] { order.push_back('C'); });
    });
    ev.schedule(200, [&] {
        ev.schedule(100 + span, [&] { order.push_back('D'); });
        ev.schedule(100 + span + 1, [&] { order.push_back('E'); });
    });
    EXPECT_TRUE(eq.run());
    EXPECT_EQ(order, (std::vector<char>{'B', 'A', 'D', 'C', 'E'}));
    EXPECT_EQ(eq.curTick(), 100 + span + 1);
}

TEST(EventWheelTest, RunLimitStopsMidWheelAndResumes)
{
    EventQueue eq;
    ClosureEvents ev(eq);
    std::vector<int> order;
    ev.schedule(5, [&] { order.push_back(5); });
    ev.schedule(6, [&] { order.push_back(6); });
    ev.schedule(7, [&] { order.push_back(7); });
    ev.schedule(300, [&] { order.push_back(300); });
    EXPECT_FALSE(eq.run(6));
    EXPECT_EQ(order, (std::vector<int>{5, 6}));
    EXPECT_EQ(eq.curTick(), 6u);
    // A limit behind the current tick runs nothing and keeps time.
    EXPECT_FALSE(eq.run(3));
    EXPECT_EQ(eq.curTick(), 6u);
    // Joins the tick-7 bucket behind the pending event.
    ev.schedule(7, [&] { order.push_back(8); });
    EXPECT_FALSE(eq.run(299));
    EXPECT_EQ(order, (std::vector<int>{5, 6, 7, 8}));
    EXPECT_EQ(eq.curTick(), 299u);
    EXPECT_TRUE(eq.run());
    EXPECT_EQ(order, (std::vector<int>{5, 6, 7, 8, 300}));
    EXPECT_EQ(eq.curTick(), 300u);
}

TEST(EventWheelTest, PeriodicFiresAcrossAnEmptyStretchOfTheRing)
{
    EventQueue eq;
    ClosureEvents ev(eq);
    std::vector<std::pair<char, Tick>> log;
    eq.setPeriodic(100, [&] { log.push_back({'P', eq.curTick()}); });
    ev.schedule(10, [&] { log.push_back({'e', eq.curTick()}); });
    ev.schedule(450, [&] {
        log.push_back({'e', eq.curTick()});
        ev.scheduleIn(500, [&] { log.push_back({'e', eq.curTick()}); });
    });
    EXPECT_TRUE(eq.run());
    const std::vector<std::pair<char, Tick>> expected{
        {'e', 10},  {'P', 100}, {'P', 200}, {'P', 300}, {'P', 400},
        {'e', 450}, {'P', 500}, {'P', 600}, {'P', 700}, {'P', 800},
        {'P', 900}, {'e', 950}};
    EXPECT_EQ(log, expected);
}

TEST(EventWheelTest, EmptyCoversTheOverflowHeap)
{
    EventQueue eq;
    ClosureEvents ev(eq);
    EXPECT_TRUE(eq.empty());
    ev.schedule(10 * EventQueue::kWheelSpan, [] {}); // past the span
    EXPECT_FALSE(eq.empty());
    EXPECT_TRUE(eq.run());
    EXPECT_TRUE(eq.empty());
    ev.scheduleIn(1, [] {}); // the wheel
    EXPECT_FALSE(eq.empty());
    EXPECT_TRUE(eq.run());
    EXPECT_TRUE(eq.empty());
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

TEST(GoldenMemoryTest, VersionTableMatchesAMapAcrossGrowths)
{
    // 20k distinct lines grow the table from 1024 slots to 64K. Half
    // the lines are clustered (a workload's footprint), half spread
    // over the address space, plus the extremes 0 and 2^63.
    GoldenMemory mem;
    std::unordered_map<Addr, std::uint32_t> reference;
    Rng rng(0x901d);
    std::vector<Addr> lines;
    for (std::size_t i = 0; i < 10000; ++i)
        lines.push_back(0x10000 + 64 * i);
    for (std::size_t i = 0; i < 10000; ++i)
        lines.push_back(rng.next64() & ~Addr{63});
    lines.push_back(Addr{1} << 63);
    lines.push_back(0);
    for (int op = 0; op < 200000; ++op) {
        const Addr line = lines[rng.below(lines.size())];
        if (rng.bernoulli(0.5)) {
            ASSERT_EQ(mem.write(line), ++reference[line]) << line;
        } else {
            const auto it = reference.find(line);
            ASSERT_EQ(mem.version(line),
                      it == reference.end() ? 0u : it->second)
                << line;
        }
    }
    for (const Addr line : lines) {
        const auto it = reference.find(line);
        EXPECT_EQ(mem.version(line),
                  it == reference.end() ? 0u : it->second);
    }
    EXPECT_EQ(mem.version(0x10000 + 64 * 10000), 0u); // never listed
}

TEST(GoldenMemoryTest, DataWordsArePinned)
{
    // Any rewrite of the generation loop must keep these bits: every
    // golden and recording hashes payloads derived from them.
    const GoldenMemory mem;
    const std::vector<std::pair<Addr, std::uint32_t>> points{
        {0x1000, 0}, {0x7fffffc0, 3}};
    const std::uint64_t pinned[2][8] = {
        {0xd1fbbca44a1cedf7ULL, 0xfb1bfd1caf12b40fULL,
         0xcffcf8141da5e848ULL, 0x48b4b33b14e1a9a8ULL,
         0x13d94fd5a0130803ULL, 0x2aad726bbe464da1ULL,
         0xbcd64eb14ec8a62aULL, 0xee6731798fbbc334ULL},
        {0x36e09c668e3f43fdULL, 0xd1c66a71935faf09ULL,
         0x362f75f91986994cULL, 0x6621e01e9f0d9fe4ULL,
         0xab1a23a8d51545b1ULL, 0x4a0b74d8d51ff5f3ULL,
         0x3301913bd8b3f22cULL, 0x24bfe52fc6888c21ULL},
    };
    for (std::size_t p = 0; p < points.size(); ++p) {
        const BitVec bits = mem.data(points[p].first, points[p].second);
        ASSERT_EQ(bits.numWords(), 8u);
        for (std::size_t w = 0; w < 8; ++w)
            EXPECT_EQ(bits.word(w), pinned[p][w]) << p << "/" << w;
    }
}

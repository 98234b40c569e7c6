/**
 * @file
 * Tests for the cache models: L1 hit/miss/LRU behaviour and the
 * banked write-through L2 — miss handling, MSHR merging, LRU
 * eviction, write-through semantics, protection-scheme integration
 * (error-induced misses, allocation gating and priorities, SDC
 * accounting, backdoor invalidation, the packed tag words, the
 * payloads handed to re-entrant hooks) — and the geometry's address
 * split.
 */

#include <gtest/gtest.h>

#include <map>
#include <memory>
#include <vector>

#include "cache/l1cache.hh"
#include "cache/l2cache.hh"
#include "cache/protection.hh"
#include "sim/dram.hh"
#include "sim/event_queue.hh"
#include "sim/golden.hh"

using namespace killi;

namespace
{

/** Tiny geometry: 8KB, 4-way, 64B lines, 2 banks -> 32 sets. */
CacheGeometry
tinyGeom()
{
    return CacheGeometry{8 * 1024, 4, 64, 2};
}

/** Scriptable protection for driving the L2's hooks. */
class MockProtection : public ProtectionScheme
{
  public:
    std::string name() const override { return "Mock"; }

    bool
    canAllocate(std::size_t lineId) const override
    {
        ++canAllocateCalls;
        return allocatable.empty() || allocatable[lineId];
    }

    int
    allocPriority(std::size_t lineId) const override
    {
        return priorities.empty() ? 0 : priorities[lineId];
    }

    AccessResult
    onReadHit(std::size_t lineId, const BitVec &data) override
    {
        (void)data;
        lastReadLine = lineId;
        ++readHits;
        AccessResult res = nextResult;
        nextResult = AccessResult{};
        return res;
    }

    Cycle
    onFill(std::size_t lineId, const BitVec &data) override
    {
        (void)data;
        ++fills;
        lastFillLine = lineId;
        return 0;
    }

    Cycle
    onEvict(std::size_t lineId, const BitVec &data) override
    {
        (void)data;
        ++evicts;
        lastEvictLine = lineId;
        // Killi's eviction training may disable the dying way.
        if (lineId == disableOnEvict)
            allocatable[lineId] = false;
        return 0;
    }

    void onInvalidate(std::size_t lineId) override
    {
        ++invalidates;
        lastInvalidateLine = lineId;
    }

    AccessResult nextResult;
    std::vector<bool> allocatable;
    std::vector<int> priorities;
    mutable unsigned canAllocateCalls = 0;
    unsigned readHits = 0;
    unsigned fills = 0;
    unsigned evicts = 0;
    unsigned invalidates = 0;
    std::size_t lastReadLine = ~0u;
    std::size_t lastFillLine = ~0u;
    std::size_t lastEvictLine = ~0u;
    std::size_t lastInvalidateLine = ~0u;
    /** Evicting this line makes it unallocatable (needs
     *  allocatable sized). */
    std::size_t disableOnEvict = ~0u;
};

/** L2 requester test double: records every (token, tick) answer. */
class RecordingClient : public L2Client
{
  public:
    struct Response
    {
        std::uint64_t token;
        Tick when;

        bool
        operator==(const Response &o) const
        {
            return token == o.token && when == o.when;
        }
    };

    void
    l2Response(std::uint64_t token, Tick when) override
    {
        responses.push_back({token, when});
    }

    /** Tick of the one response to @p token (0 when unanswered). */
    Tick
    tickOf(std::uint64_t token) const
    {
        for (const Response &r : responses) {
            if (r.token == token)
                return r.when;
        }
        return 0;
    }

    std::vector<Response> responses;
};

std::ostream &
operator<<(std::ostream &os, const RecordingClient::Response &r)
{
    return os << "(" << r.token << ", " << r.when << ")";
}

/** Issue a read on @p l2, run @p eq to completion, and return the
 *  response tick. */
Tick
readBlocking(EventQueue &eq, L2Cache &l2, Addr addr)
{
    RecordingClient client;
    l2.read(addr, client, 0);
    eq.run();
    const bool responded = client.responses.size() == 1;
    EXPECT_TRUE(responded);
    return client.tickOf(0);
}

struct L2Fixture
{
    explicit L2Fixture(const L2Params &params = L2Params{})
        : dram(DramParams{}),
          l2(eq, dram, golden, prot, tinyGeom(), params)
    {
    }

    /** Issue a read and run to completion; returns response tick. */
    Tick readBlocking(Addr addr) { return ::readBlocking(eq, l2, addr); }

    EventQueue eq;
    GoldenMemory golden;
    DramModel dram;
    MockProtection prot;
    RecordingClient client;
    L2Cache l2;
};

} // namespace

TEST(L1CacheTest, MissThenHit)
{
    L1Cache l1(CacheGeometry{16 * 1024, 4, 64, 1});
    EXPECT_FALSE(l1.lookup(0x1000));
    l1.fill(0x1000);
    EXPECT_TRUE(l1.lookup(0x1000));
    EXPECT_TRUE(l1.lookup(0x1010)); // same line
    EXPECT_FALSE(l1.lookup(0x2000));
}

TEST(L1CacheTest, LruEvictsOldest)
{
    // 4-way set: fill 5 conflicting lines, the first must be gone.
    CacheGeometry g{16 * 1024, 4, 64, 1};
    L1Cache l1(g);
    const std::size_t setStride = g.numSets() * g.lineBytes;
    for (int i = 0; i < 5; ++i)
        l1.fill(0x1000 + i * setStride);
    EXPECT_FALSE(l1.lookup(0x1000));
    for (int i = 1; i < 5; ++i)
        EXPECT_TRUE(l1.lookup(0x1000 + i * setStride));
}

TEST(L1CacheTest, LookupRefreshesRecency)
{
    CacheGeometry g{16 * 1024, 4, 64, 1};
    L1Cache l1(g);
    const std::size_t setStride = g.numSets() * g.lineBytes;
    for (int i = 0; i < 4; ++i)
        l1.fill(0x0 + i * setStride);
    EXPECT_TRUE(l1.lookup(0x0)); // refresh way 0
    l1.fill(4 * setStride);      // evicts way 1 (now LRU)
    EXPECT_TRUE(l1.lookup(0x0));
    EXPECT_FALSE(l1.lookup(1 * setStride));
}

TEST(L1CacheTest, WriteThroughNeverAllocates)
{
    L1Cache l1(CacheGeometry{16 * 1024, 4, 64, 1});
    l1.writeThrough(0x3000);
    EXPECT_FALSE(l1.lookup(0x3000));
}

TEST(L1CacheTest, FlushDropsEverything)
{
    L1Cache l1(CacheGeometry{16 * 1024, 4, 64, 1});
    l1.fill(0x1000);
    l1.flush();
    EXPECT_FALSE(l1.lookup(0x1000));
}

TEST(L2CacheTest, MissThenHitCounters)
{
    L2Fixture f;
    f.readBlocking(0x1000);
    EXPECT_EQ(f.l2.stats().readMisses, 1u);
    EXPECT_TRUE(f.l2.isCached(0x1000));
    f.readBlocking(0x1000);
    EXPECT_EQ(f.l2.stats().readHits, 1u);
    EXPECT_EQ(f.prot.readHits, 1u);
    EXPECT_EQ(f.prot.fills, 1u);
}

TEST(L2CacheTest, HitIsFasterThanMiss)
{
    L2Fixture f;
    const Tick miss = f.readBlocking(0x40);
    const Tick start = f.eq.curTick();
    const Tick hit = f.readBlocking(0x40);
    EXPECT_GT(miss, 200u);          // paid DRAM latency
    EXPECT_LT(hit - start, 20u);    // tag + data + xbar only
}

TEST(L2CacheTest, MshrMergesConcurrentMisses)
{
    L2Fixture f;
    f.l2.read(0x80, f.client, 0);
    f.l2.read(0x84, f.client, 1); // same line
    f.l2.read(0xB0, f.client, 2); // same line
    f.eq.run();
    EXPECT_EQ(f.client.responses.size(), 3u);
    EXPECT_EQ(f.dram.reads(), 1u);
    EXPECT_EQ(f.prot.fills, 1u);
}

TEST(L2CacheTest, MshrCoalescedWaitersAnsweredInArrivalOrder)
{
    L2Fixture f;
    const Addr sameLine[] = {0xC0, 0xC8, 0xFC, 0xC4};
    for (std::uint64_t token = 0; token < 4; ++token)
        f.l2.read(sameLine[token], f.client, token);
    f.eq.run();
    ASSERT_EQ(f.client.responses.size(), 4u);
    for (std::uint64_t token = 0; token < 4; ++token) {
        EXPECT_EQ(f.client.responses[token].token, token);
        EXPECT_EQ(f.client.responses[token].when,
                  f.client.responses[0].when);
    }
    EXPECT_EQ(f.dram.reads(), 1u);
}

TEST(L2CacheTest, SingleMshrPerBankRetriesWithPinnedResponses)
{
    // One MSHR per bank: misses to other lines of a busy bank retry
    // until its fill frees the entry, while same-line misses join
    // it. The (token, tick) answers are literal: any change to the
    // retry timing or the waiter order moves them.
    L2Params params;
    params.mshrsPerBank = 1;
    L2Fixture f(params);
    // Bank 0: lines 0x000, 0x080, 0x100; bank 1: 0x040, 0x0C0.
    const Addr addrs[] = {0x000, 0x080, 0x008, 0x100, 0x040, 0x0C0};
    for (std::uint64_t token = 0; token < 6; ++token)
        f.l2.read(addrs[token], f.client, token);
    f.eq.run();
    using R = RecordingClient::Response;
    const std::vector<R> expected = {{0, 212}, {2, 212}, {4, 212},
                                     {1, 413}, {5, 413}, {3, 615}};
    EXPECT_EQ(f.client.responses, expected);
    EXPECT_EQ(f.l2.stats().mshrRetries, 200u);
    EXPECT_EQ(f.dram.reads(), 5u);
    EXPECT_EQ(f.l2.mshrsInUse(), 0u);
}

TEST(L2CacheTest, MshrTableDrainsToEmpty)
{
    L2Fixture f;
    EXPECT_EQ(f.l2.mshrsInUse(), 0u);
    for (std::uint64_t i = 0; i < 48; ++i)
        f.l2.read(i * 0x40, f.client, i);
    // Mid-flight: every distinct line holds one entry (the default
    // 32 per bank covers 24 lines per bank without retries).
    EXPECT_FALSE(f.eq.run(100));
    EXPECT_EQ(f.l2.mshrsInUse(), 48u);
    EXPECT_TRUE(f.eq.run());
    EXPECT_EQ(f.client.responses.size(), 48u);
    EXPECT_EQ(f.l2.mshrsInUse(), 0u);
    // A second wave reuses the freed entries and request slots.
    for (std::uint64_t i = 0; i < 48; ++i)
        f.l2.read(0x10000 + i * 0x40, f.client, 48 + i);
    EXPECT_TRUE(f.eq.run());
    EXPECT_EQ(f.client.responses.size(), 96u);
    EXPECT_EQ(f.l2.mshrsInUse(), 0u);
    EXPECT_EQ(f.l2.stats().mshrRetries, 0u);
}

TEST(L2CacheDeathTest, FillWithoutMshrEntryPanics)
{
    L2Fixture f;
    EXPECT_DEATH(f.l2.fill(0x40), "fill without MSHR entry");
}

TEST(L2CacheTest, WriteThroughUpdatesMemoryAndLine)
{
    L2Fixture f;
    f.readBlocking(0x100);
    EXPECT_TRUE(f.l2.isCached(0x100));
    f.l2.write(0x100);
    f.eq.run();
    EXPECT_EQ(f.l2.stats().writeHits, 1u);
    EXPECT_EQ(f.dram.writes(), 1u);
    // Memory version bumped: the refetched data must be v1.
    EXPECT_EQ(f.golden.version(0x100), 1u);
}

TEST(L2CacheTest, WriteMissDoesNotAllocate)
{
    L2Fixture f;
    f.l2.write(0x200);
    f.eq.run();
    EXPECT_EQ(f.l2.stats().writeMisses, 1u);
    EXPECT_FALSE(f.l2.isCached(0x200));
    EXPECT_EQ(f.dram.writes(), 1u);
}

TEST(L2CacheTest, LruEvictionAcrossWays)
{
    L2Fixture f;
    const CacheGeometry g = tinyGeom();
    const std::size_t setStride = g.numSets() * g.lineBytes;
    // Fill all 4 ways of set 0, then a 5th line evicts the LRU.
    for (int i = 0; i < 4; ++i)
        f.readBlocking(i * setStride);
    f.readBlocking(0); // refresh the first line
    f.readBlocking(4 * setStride);
    EXPECT_EQ(f.l2.stats().evictions, 1u);
    EXPECT_TRUE(f.l2.isCached(0));
    EXPECT_FALSE(f.l2.isCached(1 * setStride));
    EXPECT_EQ(f.prot.evicts, 1u);
    EXPECT_EQ(f.prot.invalidates, 1u);
}

TEST(L2CacheTest, NonAllocatableLruWayIsSkippedInOneWalk)
{
    L2Fixture f;
    const CacheGeometry g = tinyGeom();
    const std::size_t setStride = g.numSets() * g.lineBytes;
    const std::size_t set = g.setOf(0);
    // Fill all 4 ways of set 0 (line i lands in way i), then make
    // the LRU way non-allocatable: a 5th line evicts the next-oldest.
    for (int i = 0; i < 4; ++i)
        f.readBlocking(i * setStride);
    f.prot.allocatable.assign(g.numLines(), true);
    f.prot.allocatable[g.lineId(set, 0)] = false;
    f.prot.canAllocateCalls = 0;
    f.readBlocking(4 * setStride);
    EXPECT_EQ(f.prot.lastEvictLine, g.lineId(set, 1));
    EXPECT_TRUE(f.l2.isCached(0));
    EXPECT_FALSE(f.l2.isCached(1 * setStride));
    EXPECT_EQ(f.prot.lastFillLine, g.lineId(set, 1));
    // One call per way in a single walk, plus the re-check of the
    // victim after its eviction (training may disable it).
    EXPECT_EQ(f.prot.canAllocateCalls, g.assoc + 1);
}

TEST(L2CacheTest, ErrorInducedMissRefetches)
{
    L2Fixture f;
    f.readBlocking(0x40);
    f.prot.nextResult.errorInducedMiss = true;
    const Tick start = f.eq.curTick();
    const Tick resp = f.readBlocking(0x40);
    EXPECT_EQ(f.l2.stats().errorMisses, 1u);
    EXPECT_GT(resp - start, 200u); // went to memory
    EXPECT_EQ(f.dram.reads(), 2u);
    EXPECT_TRUE(f.l2.isCached(0x40)); // refilled
    // The drop also notified the scheme.
    EXPECT_GE(f.prot.invalidates, 1u);
}

TEST(L2CacheTest, SdcCounterFollowsProtection)
{
    L2Fixture f;
    f.readBlocking(0x40);
    f.prot.nextResult.sdc = true;
    f.readBlocking(0x40);
    EXPECT_EQ(f.l2.stats().sdc, 1u);
}

TEST(L2CacheTest, ExtraLatencyCharged)
{
    L2Fixture f;
    f.readBlocking(0x40);
    const Tick s1 = f.eq.curTick();
    const Tick fastHit = f.readBlocking(0x40) - s1;
    f.prot.nextResult.extraLatency = 7;
    const Tick s2 = f.eq.curTick();
    const Tick slowHit = f.readBlocking(0x40) - s2;
    EXPECT_EQ(slowHit, fastHit + 7);
}

TEST(L2CacheTest, DisabledSetBypasses)
{
    L2Fixture f;
    const CacheGeometry g = tinyGeom();
    f.prot.allocatable.assign(g.numLines(), true);
    // Disable all 4 ways of the target set.
    const std::size_t set = g.setOf(0x0);
    for (unsigned w = 0; w < g.assoc; ++w)
        f.prot.allocatable[g.lineId(set, w)] = false;
    f.readBlocking(0x0);
    EXPECT_EQ(f.l2.stats().bypassFills, 1u);
    EXPECT_FALSE(f.l2.isCached(0x0));
    // A second access misses again.
    f.readBlocking(0x0);
    EXPECT_EQ(f.l2.stats().readMisses, 2u);
}

TEST(L2CacheTest, AllocPriorityChoosesPreferredWay)
{
    L2Fixture f;
    const CacheGeometry g = tinyGeom();
    f.prot.priorities.assign(g.numLines(), 0);
    const std::size_t set = g.setOf(0x0);
    f.prot.priorities[g.lineId(set, 2)] = 5;
    f.readBlocking(0x0);
    EXPECT_EQ(f.prot.lastFillLine, g.lineId(set, 2));
}

TEST(L2CacheTest, BackdoorInvalidationDropsLine)
{
    L2Fixture f;
    f.readBlocking(0x40);
    EXPECT_TRUE(f.l2.isCached(0x40));
    f.l2.invalidateLine(f.prot.lastFillLine);
    EXPECT_FALSE(f.l2.isCached(0x40));
    EXPECT_EQ(f.l2.stats().protInvalidations, 1u);
    // The drop routes through onEvict (classification chance).
    EXPECT_EQ(f.prot.evicts, 1u);
    EXPECT_EQ(f.prot.lastEvictLine, f.prot.lastFillLine);
}

TEST(L2CacheTest, ValidLinesTracksResidency)
{
    L2Fixture f;
    EXPECT_EQ(f.l2.validLines(), 0u);
    f.readBlocking(0x000);
    f.readBlocking(0x040);
    f.readBlocking(0x080);
    EXPECT_EQ(f.l2.validLines(), 3u);
}

TEST(L2CacheTest, BankConflictsSerialize)
{
    // Two concurrent reads to lines in the same bank queue behind
    // one another; reads to different banks do not.
    L2Fixture f;
    f.readBlocking(0x0000);       // warm bank 0
    f.readBlocking(0x0040);       // warm bank 1 (set 1)
    const CacheGeometry g = tinyGeom();
    const std::size_t setStride = g.numSets() * g.lineBytes;

    f.l2.read(0x0000, f.client, 0);
    // 0x1000 = set 0 again (32 sets * 64B = 0x800... pick the same
    // bank via same set parity): same bank as 0x0000.
    f.l2.read(0x0000 + setStride * 0 + 0x1000, f.client, 1);
    f.eq.run();
    const Tick sameA = f.client.tickOf(0);
    const Tick sameB = f.client.tickOf(1);
    // The occupancy model guarantees distinct issue slots per bank;
    // with both requests arriving together the second completes no
    // earlier than the first.
    EXPECT_GE(sameB, sameA);
}

TEST(L2CacheTest, PackedTagsFollowFillsAndDrops)
{
    // isCached/validLines read the packed tag words; drive every way
    // a tag word changes and check residency against the fills.
    L2Fixture f;
    const CacheGeometry g = tinyGeom();
    f.prot.allocatable.assign(g.numLines(), true);
    const std::size_t setStride = g.numSets() * g.lineBytes;
    const auto a = [&](int i) { return Addr(i * setStride); };
    for (int i = 0; i < 4; ++i)
        f.readBlocking(a(i)); // set 0, ways 0..3
    const Addr other = 0x40;  // set 1
    f.readBlocking(other);
    const std::size_t otherLine = f.prot.lastFillLine;
    EXPECT_EQ(f.l2.validLines(), 5u);

    // Error-induced miss: dropped, then refilled into the same way.
    f.prot.nextResult.errorInducedMiss = true;
    f.readBlocking(a(1));
    EXPECT_EQ(f.l2.stats().errorMisses, 1u);
    EXPECT_EQ(f.prot.lastFillLine, g.lineId(0, 1));
    EXPECT_TRUE(f.l2.isCached(a(1)));
    EXPECT_EQ(f.l2.validLines(), 5u);

    // Protection invalidation through the backdoor.
    f.l2.invalidateLine(otherLine);
    EXPECT_FALSE(f.l2.isCached(other));
    EXPECT_EQ(f.l2.validLines(), 4u);

    // Disable-and-retry: evicting the LRU way (a(0), way 0) disables
    // it, so the fill evicts the next LRU line, a(2), and takes its
    // way.
    f.prot.disableOnEvict = g.lineId(0, 0);
    f.readBlocking(a(4));
    EXPECT_EQ(f.l2.stats().evictions, 2u);
    EXPECT_EQ(f.prot.lastFillLine, g.lineId(0, 2));
    const bool cached[] = {false, true, false, true, true};
    for (int i = 0; i < 5; ++i)
        EXPECT_EQ(f.l2.isCached(a(i)), cached[i]) << "line " << i;
    EXPECT_EQ(f.l2.validLines(), 3u);
}

TEST(CacheGeometryTest, NonPowerOfTwoSetCountMatchesTheDivideFormula)
{
    // 48 lines x 16 ways -> 3 sets (kcheck and the tests use such
    // set counts): the shift-based split agrees with the divides.
    const CacheGeometry g{48 * 64, 16, 64, 2};
    ASSERT_EQ(g.numSets(), 3u);
    std::uint64_t x = 7;
    for (int i = 0; i < 4096; ++i) {
        x = x * 6364136223846793005ull + 1442695040888963407ull;
        const Addr addr = i < 2048 ? Addr(i) * 24 : x >> (i % 17);
        EXPECT_EQ(g.setOf(addr), (addr / 64) % 3) << addr;
        EXPECT_EQ(g.tagOf(addr), addr / 64 / 3) << addr;
        EXPECT_EQ(g.bankOf(addr), (addr / 64) % 3 % 2) << addr;
        EXPECT_EQ(g.addrOf(g.tagOf(addr), g.setOf(addr)),
                  g.lineAddr(addr))
            << addr;
    }
}

TEST(CacheGeometryDeathTest, NonPowerOfTwoLineSizeIsFatal)
{
    EXPECT_EXIT(
        {
            const CacheGeometry g(48 * 48, 4, 48, 1);
            (void)g;
        },
        ::testing::ExitedWithCode(1), "not a power of two");
}

namespace
{

struct WbL2Fixture
{
    WbL2Fixture()
        : dram(DramParams{}),
          l2(eq, dram, golden, prot, tinyGeom(),
             [] {
                 L2Params p;
                 p.writePolicy = WritePolicy::WriteBack;
                 return p;
             }())
    {
    }

    Tick readBlocking(Addr addr) { return ::readBlocking(eq, l2, addr); }

    EventQueue eq;
    GoldenMemory golden;
    DramModel dram;
    MockProtection prot;
    L2Cache l2;
};

} // namespace

TEST(L2WritebackTest, WriteHitDirtiesWithoutMemoryWrite)
{
    WbL2Fixture f;
    f.readBlocking(0x100);
    f.l2.write(0x100);
    f.eq.run();
    EXPECT_EQ(f.l2.stats().writeHits, 1u);
    EXPECT_EQ(f.dram.writes(), 0u); // deferred until eviction
}

TEST(L2WritebackTest, WriteMissAllocates)
{
    WbL2Fixture f;
    f.l2.write(0x200);
    f.eq.run();
    EXPECT_TRUE(f.l2.isCached(0x200)); // write-allocate
    EXPECT_EQ(f.dram.writes(), 0u);
    EXPECT_EQ(f.prot.fills, 1u);
}

TEST(L2WritebackTest, EvictionFlushesDirtyLine)
{
    WbL2Fixture f;
    const CacheGeometry g = tinyGeom();
    const std::size_t setStride = g.numSets() * g.lineBytes;
    f.l2.write(0x0);
    f.eq.run();
    // Evict the dirty line by filling the set's four ways plus one.
    for (int i = 1; i <= 4; ++i)
        f.readBlocking(i * setStride);
    EXPECT_EQ(f.l2.stats().writebacks, 1u);
    EXPECT_EQ(f.dram.writes(), 1u);
    EXPECT_FALSE(f.l2.isCached(0x0));
}

TEST(L2WritebackTest, BackdoorInvalidationFlushesDirtyLine)
{
    WbL2Fixture f;
    f.l2.write(0x140);
    f.eq.run();
    EXPECT_TRUE(f.l2.isCached(0x140));
    f.l2.invalidateLine(f.prot.lastFillLine);
    EXPECT_EQ(f.l2.stats().writebacks, 1u);
    EXPECT_EQ(f.dram.writes(), 1u);
}

TEST(L2WritebackTest, CleanEvictionWritesNothing)
{
    WbL2Fixture f;
    const CacheGeometry g = tinyGeom();
    const std::size_t setStride = g.numSets() * g.lineBytes;
    for (int i = 0; i <= 4; ++i)
        f.readBlocking(i * setStride);
    EXPECT_EQ(f.l2.stats().evictions, 1u);
    EXPECT_EQ(f.dram.writes(), 0u);
}

namespace
{

/**
 * Checks every hook's payload against the golden oracle. A hook sees
 * only a line id, so the test names each fill's address before
 * causing it. Filling dropTrigger drops dropVictim from inside
 * onFill through the backdoor, as Killi's ECC-cache contention does.
 */
class PayloadCheckingProtection : public ProtectionScheme
{
  public:
    explicit PayloadCheckingProtection(const GoldenMemory &golden_)
        : golden(golden_)
    {
    }

    std::string name() const override { return "PayloadCheck"; }

    Cycle
    onFill(std::size_t lineId, const BitVec &data) override
    {
        addrOf[lineId] = nextFill;
        lineOf[nextFill] = lineId;
        check("onFill", lineId, data);
        if (nextFill == dropTrigger) {
            host->invalidateLine(lineOf.at(dropVictim));
            // The drop generated the victim's payload; ours must
            // still be our own line's.
            check("onFill after the nested drop", lineId, data);
        }
        return 0;
    }

    void
    onWriteHit(std::size_t lineId, const BitVec &data) override
    {
        check("onWriteHit", lineId, data);
    }

    WritebackOutcome
    onWriteback(std::size_t lineId, const BitVec &data) override
    {
        ++writebacks;
        check("onWriteback", lineId, data);
        return {};
    }

    AccessResult
    onReadHit(std::size_t lineId, const BitVec &data) override
    {
        check("onReadHit", lineId, data);
        return {};
    }

    Cycle
    onEvict(std::size_t lineId, const BitVec &data) override
    {
        ++evicts;
        check("onEvict", lineId, data);
        return 0;
    }

    /** Address of the next fill (set by the test before each). */
    Addr nextFill = 0;
    Addr dropTrigger = ~Addr{0};
    Addr dropVictim = ~Addr{0};
    unsigned checks = 0;
    unsigned evicts = 0;
    unsigned writebacks = 0;

  private:
    void
    check(const char *hook, std::size_t lineId, const BitVec &data)
    {
        ++checks;
        const Addr addr = addrOf.at(lineId);
        EXPECT_TRUE(data == golden.data(addr, golden.version(addr)))
            << hook << ": line " << lineId << " (addr " << addr
            << ") got another line's payload";
    }

    const GoldenMemory &golden;
    std::map<std::size_t, Addr> addrOf;
    std::map<Addr, std::size_t> lineOf;
};

} // namespace

TEST(L2PayloadTest, ReentrantHooksEachSeeTheirOwnLinesPayload)
{
    EventQueue eq;
    GoldenMemory golden;
    DramModel dram{DramParams{}};
    PayloadCheckingProtection prot(golden);
    L2Params params;
    params.writePolicy = WritePolicy::WriteBack;
    const CacheGeometry g = tinyGeom();
    L2Cache l2(eq, dram, golden, prot, g, params);

    // A dirty line (write-allocate, then a store hit)...
    const Addr dirty = 0x140;
    prot.nextFill = dirty;
    l2.write(dirty);
    eq.run();
    l2.write(dirty);
    eq.run();
    // ...dropped, with a write-back, from inside another line's fill.
    const Addr filled = 0x40;
    prot.nextFill = filled;
    prot.dropTrigger = filled;
    prot.dropVictim = dirty;
    readBlocking(eq, l2, filled);
    EXPECT_FALSE(l2.isCached(dirty));
    EXPECT_EQ(prot.evicts, 1u);
    EXPECT_EQ(prot.writebacks, 1u);

    // Read and store hits, then a capacity eviction of the now dirty
    // filled line through the allocate path.
    readBlocking(eq, l2, filled);
    l2.write(filled);
    eq.run();
    const Addr setStride = Addr(g.numSets()) * g.lineBytes;
    for (Addr i = 1; i <= g.assoc; ++i) {
        prot.nextFill = filled + i * setStride;
        readBlocking(eq, l2, prot.nextFill);
    }
    EXPECT_FALSE(l2.isCached(filled));
    EXPECT_EQ(prot.evicts, 2u);
    EXPECT_EQ(prot.writebacks, 2u);
    // 6 fills, 3 stores (the write-allocate's included), 2 evicts,
    // 2 write-backs, 1 read hit and the outer fill's re-check.
    EXPECT_EQ(prot.checks, 15u);
}

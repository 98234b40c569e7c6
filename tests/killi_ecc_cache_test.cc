/**
 * @file
 * Tests for the decoupled ECC cache: indexing by L2 set, tag-by-
 * (index,way) lookup, LRU within a set, eviction reporting (the
 * disjoint-set contention mechanism), touch coordination, and reset.
 */

#include <gtest/gtest.h>

#include "killi/ecc_cache.hh"

using namespace killi;

namespace
{
/** 16 entries, 4-way -> 4 ECC sets; host L2 is 16-way. */
EccCache
smallCache()
{
    return EccCache(16, 4, 16);
}

/** L2 line id living in L2 set @p set, way @p way (16-way L2). */
std::size_t
l2Line(std::size_t set, unsigned way)
{
    return set * 16 + way;
}
} // namespace

TEST(EccCacheTest, GeometryChecks)
{
    EccCache ecc = smallCache();
    EXPECT_EQ(ecc.numEntries(), 16u);
    EXPECT_EQ(ecc.numSets(), 4u);
    EXPECT_EQ(ecc.validEntries(), 0u);
    EXPECT_DEATH(EccCache(15, 4, 16), "");
}

TEST(EccCacheTest, AllocateThenFind)
{
    EccCache ecc = smallCache();
    std::size_t evicted = EccCache::npos;
    EccEntry *e = ecc.allocate(l2Line(3, 7), evicted);
    ASSERT_NE(e, nullptr);
    EXPECT_EQ(evicted, EccCache::npos);
    EXPECT_TRUE(e->valid);
    EXPECT_EQ(e->l2Line, l2Line(3, 7));

    EccEntry *found = ecc.find(l2Line(3, 7));
    EXPECT_EQ(found, e);
    EXPECT_EQ(ecc.find(l2Line(3, 8)), nullptr);
    EXPECT_EQ(ecc.validEntries(), 1u);
}

TEST(EccCacheTest, DisjointL2SetsAliasToSameEccSet)
{
    // 4 ECC sets: L2 sets 0 and 4 map to ECC set 0 — the paper's
    // "addresses from disjoint cache sets store their checkbits in
    // the same ECC cache set".
    EccCache ecc = smallCache();
    std::size_t evicted;
    // Fill ECC set 0 with entries from L2 sets 0,4,8,12.
    for (unsigned i = 0; i < 4; ++i)
        ecc.allocate(l2Line(i * 4, 0), evicted);
    EXPECT_EQ(ecc.validEntries(), 4u);
    // One more from L2 set 16 (also ECC set 0) evicts the LRU.
    ecc.allocate(l2Line(16, 0), evicted);
    EXPECT_EQ(evicted, l2Line(0, 0));
    EXPECT_EQ(ecc.validEntries(), 4u);
    EXPECT_EQ(ecc.find(l2Line(0, 0)), nullptr);
}

TEST(EccCacheTest, TouchProtectsFromEviction)
{
    EccCache ecc = smallCache();
    std::size_t evicted;
    for (unsigned i = 0; i < 4; ++i)
        ecc.allocate(l2Line(i * 4, 0), evicted);
    // Promote the oldest; the next eviction must pick the second.
    ecc.touch(l2Line(0, 0));
    ecc.allocate(l2Line(16, 0), evicted);
    EXPECT_EQ(evicted, l2Line(4, 0));
    EXPECT_NE(ecc.find(l2Line(0, 0)), nullptr);
}

TEST(EccCacheTest, InvalidSlotsPreferredOverEviction)
{
    EccCache ecc = smallCache();
    std::size_t evicted;
    ecc.allocate(l2Line(0, 0), evicted);
    ecc.invalidate(l2Line(0, 0));
    EXPECT_EQ(ecc.validEntries(), 0u);
    ecc.allocate(l2Line(4, 0), evicted);
    EXPECT_EQ(evicted, EccCache::npos);
}

TEST(EccCacheTest, CanHostWithoutEviction)
{
    EccCache ecc = smallCache();
    std::size_t evicted;
    for (unsigned i = 0; i < 3; ++i)
        ecc.allocate(l2Line(i * 4, 0), evicted);
    // One slot still free in ECC set 0.
    EXPECT_TRUE(ecc.canHostWithoutEviction(l2Line(16, 0)));
    ecc.allocate(l2Line(12, 0), evicted);
    EXPECT_FALSE(ecc.canHostWithoutEviction(l2Line(16, 0)));
    // An already-hosted line can always be hosted.
    EXPECT_TRUE(ecc.canHostWithoutEviction(l2Line(0, 0)));
    // Other ECC sets are unaffected.
    EXPECT_TRUE(ecc.canHostWithoutEviction(l2Line(1, 0)));
}

TEST(EccCacheTest, InvalidateIsIdempotent)
{
    EccCache ecc = smallCache();
    std::size_t evicted;
    ecc.allocate(l2Line(2, 3), evicted);
    ecc.invalidate(l2Line(2, 3));
    ecc.invalidate(l2Line(2, 3)); // no-op
    EXPECT_EQ(ecc.validEntries(), 0u);
}

TEST(EccCacheTest, DuplicateAllocationPanics)
{
    EccCache ecc = smallCache();
    std::size_t evicted;
    ecc.allocate(l2Line(2, 3), evicted);
    EXPECT_DEATH(ecc.allocate(l2Line(2, 3), evicted), "");
}

TEST(EccCacheTest, ClearDropsEverything)
{
    EccCache ecc = smallCache();
    std::size_t evicted;
    for (unsigned i = 0; i < 8; ++i)
        ecc.allocate(l2Line(i, 0), evicted);
    ecc.clear();
    EXPECT_EQ(ecc.validEntries(), 0u);
    for (unsigned i = 0; i < 8; ++i)
        EXPECT_EQ(ecc.find(l2Line(i, 0)), nullptr);
}

TEST(EccCacheTest, StatsTrackLifecycle)
{
    EccCache ecc = smallCache();
    std::size_t evicted;
    for (unsigned i = 0; i < 5; ++i)
        ecc.allocate(l2Line(i * 4, 0), evicted);
    EXPECT_EQ(ecc.stats().allocs, 5u);
    EXPECT_EQ(ecc.stats().evictions, 1u);
    ecc.invalidate(l2Line(16, 0));
    EXPECT_EQ(ecc.stats().frees, 1u);
}

/**
 * @file
 * Behavioural tests of the KilliProtection controller with planted,
 * deterministic faults: the full DFH lifecycle (classification on
 * first use, masked-fault oscillation of §4.3, disabling), ECC-cache
 * entry management and its L2 side effects, eviction training,
 * allocation gating/priorities, the §5.6.2 masked-fault SDC window
 * and its inverted-write mitigation, and the §5.2 DECTED upgrade.
 */

#include <gtest/gtest.h>

#include <memory>

#include "common/rng.hh"
#include "ecc/parity.hh"
#include "fault/fault_map.hh"
#include "iid_die.hh"
#include "killi/killi.hh"

using namespace killi;

namespace
{

constexpr std::size_t kLineBits = 512;

/** Host mock recording backdoor invalidations. */
class MockHost : public L2Backdoor
{
  public:
    void
    invalidateLine(std::size_t lineId) override
    {
        invalidated.push_back(lineId);
    }

    Tick now() const override { return 0; }

    std::vector<std::size_t> invalidated;
};

/** 16KB, 16-way L2: 256 lines, 16 sets. */
CacheGeometry
testGeom()
{
    return CacheGeometry{16 * 1024, 16, 64, 2};
}

struct KilliFixture
{
    explicit KilliFixture(KilliParams params = KilliParams{})
        : faults(iidDie(testGeom().numLines(), /*seed=*/99, 1.0))
    {
        // Nominal voltage: the random population is empty; tests
        // plant exactly the faults they want.
        prot = std::make_unique<KilliProtection>(*faults, params);
        prot->attach(host, testGeom());
    }

    /** All-zero payload (stuck-at-1 faults are visible on it). */
    BitVec
    zeros() const
    {
        return BitVec(kLineBits);
    }

    /** Payload with selected bits set. */
    BitVec
    pattern(std::initializer_list<std::size_t> ones) const
    {
        BitVec v(kLineBits);
        for (const std::size_t pos : ones)
            v.set(pos);
        return v;
    }

    MockHost host;
    std::unique_ptr<FaultMap> faults;
    std::unique_ptr<KilliProtection> prot;
};

} // namespace

TEST(KilliTest, FaultFreeLineTrainsToStable0OnFirstHit)
{
    KilliFixture f;
    const BitVec data = f.zeros();
    EXPECT_EQ(f.prot->dfhOf(7), Dfh::Initial);
    f.prot->onFill(7, data);
    EXPECT_NE(f.prot->eccCache().find(7), nullptr); // training entry

    const AccessResult res = f.prot->onReadHit(7, data);
    EXPECT_FALSE(res.errorInducedMiss);
    EXPECT_FALSE(res.sdc);
    EXPECT_EQ(f.prot->dfhOf(7), Dfh::Stable0);
    // "Invalidate entry in ECC cache; Send clean line."
    EXPECT_EQ(f.prot->eccCache().find(7), nullptr);
}

TEST(KilliTest, VisibleSingleFaultClassifiesStable1AndCorrects)
{
    KilliFixture f;
    f.faults->plantFault(7, 100, /*stuck=*/true);
    const BitVec data = f.zeros(); // bit 100 reads back flipped
    f.prot->onFill(7, data);

    const AccessResult res = f.prot->onReadHit(7, data);
    EXPECT_FALSE(res.errorInducedMiss);
    EXPECT_FALSE(res.sdc); // SECDED really corrects the bit
    EXPECT_EQ(f.prot->dfhOf(7), Dfh::Stable1);
    EXPECT_NE(f.prot->eccCache().find(7), nullptr); // entry retained
    EXPECT_EQ(f.prot->stats().corrections, 1u);
    // codec + correction latency on this path.
    EXPECT_EQ(res.extraLatency, 2u);
}

TEST(KilliTest, MaskedFaultLooksCleanThenOscillates)
{
    // The §4.3 story: a stuck-at-0 cell holding a 0 is invisible;
    // the line trains to b'00. A later write of a 1 unmasks it; the
    // next read sees a parity mismatch, raises an error-induced
    // miss, and sends the line back to b'01 for reclassification.
    KilliFixture f;
    f.faults->plantFault(3, 40, /*stuck=*/false);

    const BitVec masked = f.zeros(); // stores 0 over a stuck-0 cell
    f.prot->onFill(3, masked);
    EXPECT_FALSE(f.prot->onReadHit(3, masked).errorInducedMiss);
    EXPECT_EQ(f.prot->dfhOf(3), Dfh::Stable0); // believed fault-free

    const BitVec unmasking = f.pattern({40});
    f.prot->onWriteHit(3, unmasking);
    const AccessResult res = f.prot->onReadHit(3, unmasking);
    EXPECT_TRUE(res.errorInducedMiss);
    EXPECT_EQ(f.prot->dfhOf(3), Dfh::Initial); // relearn

    // The refetch classifies it correctly this time.
    f.prot->onFill(3, unmasking);
    const AccessResult res2 = f.prot->onReadHit(3, unmasking);
    EXPECT_FALSE(res2.errorInducedMiss);
    EXPECT_EQ(f.prot->dfhOf(3), Dfh::Stable1);
}

TEST(KilliTest, TwoFaultsDistinctSegmentsDisable)
{
    KilliFixture f;
    f.faults->plantFault(5, 10, true);
    f.faults->plantFault(5, 11, true); // different fine segment
    const BitVec data = f.zeros();
    f.prot->onFill(5, data);
    const AccessResult res = f.prot->onReadHit(5, data);
    EXPECT_TRUE(res.errorInducedMiss);
    EXPECT_EQ(f.prot->dfhOf(5), Dfh::Disabled);
    EXPECT_FALSE(f.prot->canAllocate(5));
}

TEST(KilliTest, TwoFaultsSameSegmentCaughtBySecded)
{
    // Same 33-bit training segment: parity is blind (even count in
    // one segment) but SECDED's double-error signature disables.
    KilliFixture f;
    f.faults->plantFault(5, 16, true);
    f.faults->plantFault(5, 32, true); // 16 apart: same segment
    const BitVec data = f.zeros();
    f.prot->onFill(5, data);
    const AccessResult res = f.prot->onReadHit(5, data);
    EXPECT_TRUE(res.errorInducedMiss);
    EXPECT_EQ(f.prot->dfhOf(5), Dfh::Disabled);
}

TEST(KilliTest, StoredParityCellFaultHandled)
{
    // A fault in one of the four folded-parity cells (positions
    // 512..515): payload intact, classified as a metadata fault.
    KilliFixture f;
    f.faults->plantFault(9, 513, true);
    const BitVec data = f.zeros(); // folded parity = 0000, cell reads 1
    f.prot->onFill(9, data);
    const AccessResult res = f.prot->onReadHit(9, data);
    EXPECT_FALSE(res.errorInducedMiss);
    EXPECT_FALSE(res.sdc);
    EXPECT_EQ(f.prot->dfhOf(9), Dfh::Stable1);
}

TEST(KilliTest, WriteHitFlippingParityCellUnmasksItsFault)
{
    // The folded parity cells hold the parity of the line's current
    // data. A stuck-at-1 cell at 513 is masked while group 1's
    // parity is 1; a store that clears that parity makes it visible
    // to the next read, like a payload fault under §4.3.
    KilliFixture f;
    f.faults->plantFault(9, 513, /*stuck=*/true);
    const SegmentedParity folded(kLineBits, 4, /*interleaved=*/true);
    BitVec masking = f.zeros();
    for (std::size_t bit = 0; !folded.encode(masking).get(1); ++bit)
        masking = f.pattern({bit});

    f.prot->onFill(9, masking);
    const AccessResult clean = f.prot->onReadHit(9, masking);
    EXPECT_FALSE(clean.errorInducedMiss);
    EXPECT_EQ(clean.extraLatency, 0u);
    EXPECT_EQ(f.prot->dfhOf(9), Dfh::Stable0); // believed fault-free

    const BitVec unmasking = f.zeros(); // folded parity 0000
    f.prot->onWriteHit(9, unmasking);
    const AccessResult res = f.prot->onReadHit(9, unmasking);
    EXPECT_TRUE(res.errorInducedMiss);
    EXPECT_FALSE(res.sdc);
    EXPECT_EQ(f.prot->dfhOf(9), Dfh::Initial); // relearn
}

TEST(KilliTest, EvictionTrainingClassifiesWithoutDelivery)
{
    KilliFixture f;
    f.faults->plantFault(12, 200, true);
    const BitVec data = f.zeros();
    f.prot->onFill(12, data);
    EXPECT_EQ(f.prot->dfhOf(12), Dfh::Initial);

    const Cycle cost = f.prot->onEvict(12, data);
    EXPECT_GT(cost, 0u); // the read-out occupies the bank
    EXPECT_EQ(f.prot->dfhOf(12), Dfh::Stable1);
    EXPECT_EQ(f.prot->stats().evictTrainings, 1u);

    // Trained lines cost nothing at eviction.
    f.prot->onInvalidate(12);
    f.prot->onFill(12, data);
    EXPECT_EQ(f.prot->onEvict(12, data), 0u);
}

TEST(KilliTest, EvictionTrainingCanBeDisabled)
{
    KilliParams kp;
    kp.evictionTraining = false;
    KilliFixture f(kp);
    const BitVec data = f.zeros();
    f.prot->onFill(2, data);
    EXPECT_EQ(f.prot->onEvict(2, data), 0u);
    EXPECT_EQ(f.prot->dfhOf(2), Dfh::Initial); // unchanged
}

TEST(KilliTest, EccEntryEvictionDropsProtectedLine)
{
    // ratio 64 over 256 lines -> 4 entries in a single 4-way set:
    // a fifth concurrent training line evicts the LRU entry and the
    // host must drop the line it protected.
    KilliParams kp;
    kp.ratio = 64;
    KilliFixture f(kp);
    const BitVec data = f.zeros();
    for (std::size_t line = 0; line < 4; ++line)
        f.prot->onFill(line, data);
    EXPECT_TRUE(f.host.invalidated.empty());
    f.prot->onFill(4, data);
    ASSERT_EQ(f.host.invalidated.size(), 1u);
    EXPECT_EQ(f.host.invalidated[0], 0u);
    EXPECT_EQ(f.prot->stats().eccDrops, 1u);
    EXPECT_EQ(f.prot->eccCache().find(0), nullptr);
}

TEST(KilliTest, Stable1NeedsHostableEntry)
{
    KilliParams kp;
    kp.ratio = 64; // 4 entries, one set
    KilliFixture f(kp);
    const BitVec data = f.zeros();

    // Train line 20 to Stable1.
    f.faults->plantFault(20, 7, true);
    f.prot->onFill(20, data);
    f.prot->onReadHit(20, data);
    EXPECT_EQ(f.prot->dfhOf(20), Dfh::Stable1);
    f.prot->onInvalidate(20); // line leaves the cache; entry freed

    // Fill the whole ECC cache with training lines.
    for (std::size_t line = 0; line < 4; ++line)
        f.prot->onFill(line, data);

    // The Stable1 line cannot be allocated without killing a live
    // entry — §5.2's unusable single-fault subset.
    EXPECT_FALSE(f.prot->canAllocate(20));

    // Free one entry: the line becomes usable again.
    f.prot->onInvalidate(2);
    EXPECT_TRUE(f.prot->canAllocate(20));
}

TEST(KilliTest, AllocPriorityOrdering)
{
    KilliFixture f;
    const BitVec data = f.zeros();
    // Line 0: Initial (untouched). Line 1: train to Stable0.
    f.prot->onFill(1, data);
    f.prot->onReadHit(1, data);
    // Line 2: train to Stable1.
    f.faults->plantFault(2, 77, true);
    f.prot->onFill(2, data);
    f.prot->onReadHit(2, data);

    EXPECT_GT(f.prot->allocPriority(0), f.prot->allocPriority(1));
    EXPECT_GT(f.prot->allocPriority(1), f.prot->allocPriority(2));
}

TEST(KilliTest, AllocPriorityKnobDisables)
{
    KilliParams kp;
    kp.allocPriorityEnabled = false;
    KilliFixture f(kp);
    EXPECT_EQ(f.prot->allocPriority(0), 0);
}

TEST(KilliTest, CoordinatedReplacementProtectsHotEntries)
{
    // §4.4: touching a protected line MRU-promotes its entry; with
    // the knob off, the hot entry is the LRU victim instead.
    const auto scenario = [](bool coordinated) {
        KilliParams kp;
        kp.ratio = 64; // 4 entries, one ECC set
        kp.coordinatedReplacement = coordinated;
        KilliFixture f(kp);
        const BitVec data = f.zeros();
        // Four Stable1 lines hold all four entries, 0 is oldest.
        for (std::size_t line = 0; line < 4; ++line) {
            f.faults->plantFault(line, 7, true);
            f.prot->onFill(line, data);
            f.prot->onReadHit(line, data);
        }
        // Touch line 0: with coordination its entry becomes MRU.
        f.prot->onTouch(0);
        // A fifth training line must evict some entry.
        f.prot->onFill(4, data);
        return f.host.invalidated.back();
    };
    EXPECT_EQ(scenario(true), 1u);  // line 0 was protected
    EXPECT_EQ(scenario(false), 0u); // line 0 was the LRU victim
}

TEST(KilliTest, ResetRelearnsEverything)
{
    KilliFixture f;
    const BitVec data = f.zeros();
    f.faults->plantFault(6, 10, true);
    f.faults->plantFault(6, 11, true);
    f.prot->onFill(6, data);
    f.prot->onReadHit(6, data);
    EXPECT_EQ(f.prot->dfhOf(6), Dfh::Disabled);

    f.prot->reset();
    EXPECT_EQ(f.prot->dfhOf(6), Dfh::Initial);
    EXPECT_TRUE(f.prot->canAllocate(6));
    EXPECT_EQ(f.prot->eccCache().validEntries(), 0u);
}

TEST(KilliTest, MaskedPairSameGroupIsTheSdcWindow)
{
    // §5.6.2: two masked faults in the same folded group (bits 0 and
    // 4 are distinct training segments but the same 4-bit group).
    // Training sees nothing; after unmasking both, the 4-bit parity
    // is blind and the read silently delivers corrupt data.
    KilliFixture f;
    f.faults->plantFault(8, 0, false);
    f.faults->plantFault(8, 4, false);

    const BitVec masked = f.zeros();
    f.prot->onFill(8, masked);
    EXPECT_FALSE(f.prot->onReadHit(8, masked).errorInducedMiss);
    EXPECT_EQ(f.prot->dfhOf(8), Dfh::Stable0);

    const BitVec unmasking = f.pattern({0, 4});
    f.prot->onWriteHit(8, unmasking);
    const AccessResult res = f.prot->onReadHit(8, unmasking);
    EXPECT_FALSE(res.errorInducedMiss);
    EXPECT_TRUE(res.sdc) << "the documented 5.6.2 window must be "
                            "visible to the oracle";
}

TEST(KilliTest, InvertedWriteCheckClosesTheSdcWindow)
{
    KilliParams kp;
    kp.invertedWriteCheck = true;
    KilliFixture f(kp);
    f.faults->plantFault(8, 0, false);
    f.faults->plantFault(8, 4, false);

    const BitVec masked = f.zeros();
    const Cycle cost = f.prot->onFill(8, masked);
    EXPECT_GT(cost, 0u); // two extra array operations
    // Both polarities were checked: the pair is exposed at fill and
    // the line disabled before it can ever corrupt a read.
    EXPECT_EQ(f.prot->dfhOf(8), Dfh::Disabled);
    ASSERT_EQ(f.host.invalidated.size(), 1u);
    EXPECT_EQ(f.host.invalidated[0], 8u);
}

TEST(KilliTest, InvertedWriteKeepsSingleFaultLines)
{
    KilliParams kp;
    kp.invertedWriteCheck = true;
    KilliFixture f(kp);
    f.faults->plantFault(9, 33, false); // masked on zeros
    const BitVec data = f.zeros();
    f.prot->onFill(9, data);
    EXPECT_EQ(f.prot->dfhOf(9), Dfh::Stable1); // exact classification
    EXPECT_TRUE(f.host.invalidated.empty());
}

TEST(KilliTest, DectedUpgradeKeepsTwoFaultLines)
{
    KilliParams kp;
    kp.dectedStable = true;
    KilliFixture f(kp);
    f.faults->plantFault(4, 10, true);
    f.faults->plantFault(4, 11, true);
    const BitVec data = f.zeros();

    // First touch: SECDED flags the double; the line is classified
    // b'10 (<=2 faults) instead of disabled, but this copy of the
    // data is uncorrectable and must be refetched.
    f.prot->onFill(4, data);
    const AccessResult res = f.prot->onReadHit(4, data);
    EXPECT_TRUE(res.errorInducedMiss);
    EXPECT_EQ(f.prot->dfhOf(4), Dfh::Stable1);

    // The refill stores DECTED checkbits; both faults now correct.
    f.prot->onFill(4, data);
    const AccessResult res2 = f.prot->onReadHit(4, data);
    EXPECT_FALSE(res2.errorInducedMiss);
    EXPECT_FALSE(res2.sdc);
    EXPECT_EQ(f.prot->dfhOf(4), Dfh::Stable1);

    // Three faults still disable.
    f.faults->plantFault(4, 12, true);
    f.prot->onWriteHit(4, data);
    const AccessResult res3 = f.prot->onReadHit(4, data);
    EXPECT_TRUE(res3.errorInducedMiss);
    EXPECT_EQ(f.prot->dfhOf(4), Dfh::Disabled);
}

TEST(KilliTest, UsableLinesAndHistogram)
{
    KilliFixture f;
    const BitVec data = f.zeros();
    const std::size_t total = testGeom().numLines();
    EXPECT_EQ(f.prot->usableLines(), total);

    f.faults->plantFault(0, 1, true);
    f.faults->plantFault(0, 2, true);
    f.prot->onFill(0, data);
    f.prot->onReadHit(0, data); // disables line 0
    f.prot->onFill(1, data);
    f.prot->onReadHit(1, data); // Stable0

    EXPECT_EQ(f.prot->usableLines(), total - 1);
    const auto hist = f.prot->dfhHistogram();
    EXPECT_EQ(hist[0], 1u);         // Stable0
    EXPECT_EQ(hist[1], total - 2);  // still Initial
    EXPECT_EQ(hist[3], 1u);         // Disabled
}

TEST(KilliTest, TransitionCountersTrack)
{
    KilliFixture f;
    const BitVec data = f.zeros();
    f.prot->onFill(1, data);
    f.prot->onReadHit(1, data);
    EXPECT_EQ(f.prot->stats().transitions[0b01][0b00], 1u);
    f.faults->plantFault(2, 9, true);
    f.prot->onFill(2, data);
    f.prot->onReadHit(2, data);
    EXPECT_EQ(f.prot->stats().transitions[0b01][0b10], 1u);
}

// Randomized end-to-end property: for any planted fault population
// and any stored data, Killi's first-touch classification and
// delivery obey the safety contract:
//   0 visible errors -> b'00, clean delivery;
//   1 visible error  -> b'10, corrected delivery;
//   2 visible errors -> b'11, error-induced miss (SECDED's DED with
//                       clean checkbits never aliases);
//   3+ visible       -> either detected (miss) or an aliased
//                       miscorrection that the oracle MUST flag.
// In no case is corrupt data delivered with sdc == false.
class KilliClassificationProperty
    : public ::testing::TestWithParam<unsigned>
{
};

TEST_P(KilliClassificationProperty, FirstTouchContract)
{
    Rng rng(1000 + GetParam());
    for (int iter = 0; iter < 120; ++iter) {
        KilliFixture f;
        const std::size_t line = rng.below(64);
        const unsigned planted = static_cast<unsigned>(rng.below(7));
        std::vector<std::size_t> positions;
        while (positions.size() < planted) {
            const std::size_t pos = rng.below(516);
            bool dup = false;
            for (const std::size_t p : positions)
                dup = dup || p == pos;
            if (!dup)
                positions.push_back(pos);
        }
        for (const std::size_t pos : positions) {
            f.faults->plantFault(line, static_cast<std::uint16_t>(pos),
                                 rng.bernoulli(0.5));
        }

        BitVec data(512);
        data.randomize(rng);
        f.prot->onFill(line, data);

        // Partition the visible errors of this data into payload
        // errors and metadata-cell (stored-parity) errors; the
        // contract is stated over the payload.
        const BitVec folded =
            SegmentedParity(512, 4).encode(data);
        unsigned visData = 0, visMeta = 0;
        for (const std::size_t pos :
             f.faults->visibleErrors(line, data, folded)) {
            if (pos < 512)
                ++visData;
            else
                ++visMeta;
        }

        const AccessResult res = f.prot->onReadHit(line, data);
        const Dfh after = f.prot->dfhOf(line);

        // Invariant A: with <= 2 payload errors, SECDED over clean
        // checkbits either corrects or detects — silent corruption
        // is impossible, whatever the metadata cells do.
        if (visData <= 2) {
            EXPECT_FALSE(res.sdc) << visData << "+" << visMeta;
        }

        if (visData == 0 && visMeta == 0) {
            EXPECT_FALSE(res.errorInducedMiss);
            EXPECT_EQ(after, Dfh::Stable0);
        } else if (visData == 1 && visMeta == 0) {
            EXPECT_FALSE(res.errorInducedMiss);
            EXPECT_EQ(after, Dfh::Stable1);
        } else if (visData == 2 && visMeta == 0) {
            EXPECT_TRUE(res.errorInducedMiss)
                << "two payload errors must never be delivered";
            EXPECT_EQ(after, Dfh::Disabled);
        } else if (visData >= 3) {
            // Detection is best-effort beyond SECDED's design point,
            // but corruption must never leave silently.
            if (!res.errorInducedMiss) {
                EXPECT_TRUE(res.sdc)
                    << visData << " payload errors delivered "
                                  "without the oracle flag";
            }
        }
    }
}

INSTANTIATE_TEST_SUITE_P(Seeds, KilliClassificationProperty,
                         ::testing::Range(0u, 6u));

TEST(KilliTest, NameReflectsConfiguration)
{
    KilliFixture plain;
    EXPECT_EQ(plain.prot->name(), "Killi(1:256)");
    KilliParams kp;
    kp.ratio = 16;
    kp.dectedStable = true;
    KilliFixture strong(kp);
    EXPECT_EQ(strong.prot->name(), "Killi(1:16)+DECTED");
}

// ---------------------------------------------------------------
// Directed coverage grown out of the kcheck harness: live-entry
// eviction of trained lines (§4.3), eviction-triggered training
// outcomes (§4.4), and dirty-line handling in write-back mode
// (§5.6.1).

TEST(KilliTest, LiveEccEvictionDropsStable1Line)
{
    // §4.3: a *trained* (b'10) line loses its checkbits when a
    // younger training line claims its ECC entry; the host must drop
    // it even though its DFH classification survives.
    KilliParams kp;
    kp.ratio = 64; // 4 entries, one 4-way set
    KilliFixture f(kp);
    const BitVec data = f.zeros();

    f.faults->plantFault(0, 100, true);
    f.prot->onFill(0, data);
    f.prot->onReadHit(0, data);
    ASSERT_EQ(f.prot->dfhOf(0), Dfh::Stable1);
    ASSERT_NE(f.prot->eccCache().find(0), nullptr);

    // Three training lines share the set; line 0's entry is LRU.
    for (std::size_t line = 1; line < 4; ++line)
        f.prot->onFill(line, data);
    EXPECT_TRUE(f.host.invalidated.empty());

    f.prot->onFill(4, data);
    ASSERT_EQ(f.host.invalidated.size(), 1u);
    EXPECT_EQ(f.host.invalidated[0], 0u);
    EXPECT_EQ(f.prot->eccCache().find(0), nullptr);
    // The DFH bits persist: the line is still known single-fault,
    // and unallocatable until an entry can host it again.
    EXPECT_EQ(f.prot->dfhOf(0), Dfh::Stable1);
    EXPECT_FALSE(f.prot->canAllocate(0));
}

TEST(KilliTest, EvictionTrainingDisablesTwoFaultLine)
{
    // §4.4 training on the way out must reach the same terminal
    // classification a read would, including b'11 — and release the
    // now-useless ECC entry immediately.
    KilliFixture f;
    f.faults->plantFault(12, 10, true);
    f.faults->plantFault(12, 11, true); // distinct fine segments
    const BitVec data = f.zeros();
    f.prot->onFill(12, data);
    ASSERT_NE(f.prot->eccCache().find(12), nullptr);

    const Cycle cost = f.prot->onEvict(12, data);
    EXPECT_GT(cost, 0u);
    EXPECT_EQ(f.prot->dfhOf(12), Dfh::Disabled);
    EXPECT_FALSE(f.prot->canAllocate(12));
    EXPECT_EQ(f.prot->eccCache().find(12), nullptr);
}

TEST(KilliTest, EvictionTrainingToStable0FreesEntry)
{
    KilliFixture f;
    const BitVec data = f.zeros();
    f.prot->onFill(13, data);
    ASSERT_NE(f.prot->eccCache().find(13), nullptr);
    f.prot->onEvict(13, data);
    EXPECT_EQ(f.prot->dfhOf(13), Dfh::Stable0);
    EXPECT_EQ(f.prot->eccCache().find(13), nullptr);
}

TEST(KilliTest, WritebackDirtyStable0GetsOnDemandCheckbits)
{
    // §5.6.1: once dirty, even a believed-fault-free (b'00) line
    // needs checkbits — the dirty copy is the only copy.
    KilliParams kp;
    kp.writebackMode = true;
    KilliFixture f(kp);
    const BitVec data = f.zeros();
    f.prot->onFill(3, data);
    f.prot->onReadHit(3, data);
    ASSERT_EQ(f.prot->dfhOf(3), Dfh::Stable0);
    ASSERT_EQ(f.prot->eccCache().find(3), nullptr);

    const BitVec written = f.pattern({50});
    f.prot->onWriteHit(3, written);
    EXPECT_NE(f.prot->eccCache().find(3), nullptr);

    const WritebackOutcome out = f.prot->onWriteback(3, written);
    EXPECT_TRUE(out.clean);
    EXPECT_EQ(out.extraCost, 0u);
    // The write-back cleaned the line; onInvalidate releases the
    // entry with nothing left to protect.
    f.prot->onInvalidate(3);
    EXPECT_EQ(f.prot->eccCache().find(3), nullptr);
}

TEST(KilliTest, WritebackDirtyUnmaskedFaultCorrects)
{
    // A masked stuck-0 cell trains the line to b'00; a later store
    // unmasks it while dirty. With no refetch path, the on-demand
    // SECDED checkbits are the only recovery — the read must correct
    // (not error-miss) and reclassify the line b'10.
    KilliParams kp;
    kp.writebackMode = true;
    KilliFixture f(kp);
    f.faults->plantFault(5, 40, false);
    const BitVec masked = f.zeros();
    f.prot->onFill(5, masked);
    f.prot->onReadHit(5, masked);
    ASSERT_EQ(f.prot->dfhOf(5), Dfh::Stable0);

    const BitVec unmasking = f.pattern({40});
    f.prot->onWriteHit(5, unmasking);
    const AccessResult res = f.prot->onReadHit(5, unmasking);
    EXPECT_FALSE(res.errorInducedMiss);
    EXPECT_FALSE(res.sdc);
    EXPECT_EQ(f.prot->dfhOf(5), Dfh::Stable1);
    EXPECT_EQ(f.prot->stats().corrections, 1u);

    const WritebackOutcome out = f.prot->onWriteback(5, unmasking);
    EXPECT_TRUE(out.clean);
    EXPECT_GT(out.extraCost, 0u);
}

TEST(KilliTest, WritebackDirtyStable1UsesDectedStrength)
{
    // §5.6.1: a dirty b'10 line is held to the failure probability of
    // a safe-voltage SECDED cache by upgrading it to DECTED strength
    // (the freed parity bits fit the wider code) — two visible faults
    // correct instead of losing the only copy. No §5.2 knob needed.
    KilliParams kp;
    kp.writebackMode = true;
    KilliFixture f(kp);
    f.faults->plantFault(8, 10, true);  // visible on zeros
    f.faults->plantFault(8, 20, false); // masked on zeros

    const BitVec data = f.zeros();
    f.prot->onFill(8, data);
    f.prot->onReadHit(8, data); // one visible fault
    ASSERT_EQ(f.prot->dfhOf(8), Dfh::Stable1);

    // The store keeps bit 10 at 0 (still visible) and writes a 1
    // over the stuck-0 cell at 20: two visible errors while dirty.
    const BitVec written = f.pattern({20});
    f.prot->onWriteHit(8, written);
    const AccessResult res = f.prot->onReadHit(8, written);
    EXPECT_FALSE(res.errorInducedMiss)
        << "DECTED-strength dirty line must not lose the only copy";
    EXPECT_FALSE(res.sdc);
    EXPECT_EQ(f.prot->dfhOf(8), Dfh::Stable1);

    const WritebackOutcome out = f.prot->onWriteback(8, written);
    EXPECT_TRUE(out.clean);
    EXPECT_GT(out.extraCost, 0u);
}

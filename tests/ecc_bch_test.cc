/**
 * @file
 * Tests for the BCH family (DECTED t=2, TECQED t=3, 6EC7ED t=6):
 * field arithmetic, generator geometry against the paper's checkbit
 * budgets, t-error correction everywhere including checkbits and the
 * extended parity bit, (t+1)-error detection, and probe/decode
 * equivalence, exhaustively over DECTED's 1- and 2-error sets for
 * probe()'s within-capability shortcut.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "common/rng.hh"
#include "ecc/bch.hh"
#include "ecc/gf2m.hh"

using namespace killi;

namespace
{
std::vector<std::size_t>
distinctPositions(Rng &rng, std::size_t count, std::size_t bound)
{
    std::vector<std::size_t> positions;
    while (positions.size() < count) {
        const std::size_t pos = rng.below(bound);
        if (std::find(positions.begin(), positions.end(), pos) ==
            positions.end()) {
            positions.push_back(pos);
        }
    }
    return positions;
}

void
applyErrors(BitVec &data, BitVec &check,
            const std::vector<std::size_t> &positions)
{
    for (const std::size_t pos : positions) {
        if (pos < data.size())
            data.flip(pos);
        else
            check.flip(pos - data.size());
    }
}

/** Empty when probe(@p errs) reports exactly what decode() does on
 *  the zero codeword flipped at @p errs; else what differs. */
std::string
probeDecodeMismatch(const Bch &code, const std::vector<std::size_t> &errs)
{
    BitVec data(code.dataBits());
    BitVec check(code.checkBits());
    applyErrors(data, check, errs);
    const DecodeResult real = code.decode(data, check);
    const DecodeResult predicted = code.probe(errs);
    if (real.status == predicted.status &&
        real.correctedBits == predicted.correctedBits &&
        real.syndromeNonZero == predicted.syndromeNonZero &&
        real.globalParityMismatch == predicted.globalParityMismatch)
        return "";
    std::string what = code.name() + " errors {";
    for (const std::size_t pos : errs)
        what += " " + std::to_string(pos);
    return what + " }: decode " + decodeStatusName(real.status) + "/" +
           std::to_string(real.correctedBits) + "/" +
           std::to_string(real.syndromeNonZero) + "/" +
           std::to_string(real.globalParityMismatch) + ", probe " +
           decodeStatusName(predicted.status) + "/" +
           std::to_string(predicted.correctedBits) + "/" +
           std::to_string(predicted.syndromeNonZero) + "/" +
           std::to_string(predicted.globalParityMismatch);
}
} // namespace

TEST(GF2mTest, FieldAxiomsGF1024)
{
    const GF2m field(10);
    EXPECT_EQ(field.order(), 1023u);
    // alpha^order == 1
    EXPECT_EQ(field.alphaPow(1023), 1u);
    EXPECT_EQ(field.alphaPow(0), 1u);
    // Associativity and inverse on random elements.
    Rng rng(1);
    for (int iter = 0; iter < 200; ++iter) {
        const std::uint32_t a =
            static_cast<std::uint32_t>(rng.range(1, 1023));
        const std::uint32_t b =
            static_cast<std::uint32_t>(rng.range(1, 1023));
        const std::uint32_t c =
            static_cast<std::uint32_t>(rng.range(1, 1023));
        EXPECT_EQ(field.mul(field.mul(a, b), c),
                  field.mul(a, field.mul(b, c)));
        EXPECT_EQ(field.mul(a, field.inv(a)), 1u);
        EXPECT_EQ(field.div(field.mul(a, b), b), a);
    }
}

TEST(GF2mTest, LogExpConsistency)
{
    const GF2m field(10);
    Rng rng(2);
    for (int iter = 0; iter < 100; ++iter) {
        const std::int64_t e = static_cast<std::int64_t>(rng.below(5000)) -
            2500;
        const std::uint32_t x = field.alphaPow(e);
        EXPECT_EQ(field.alphaPow(field.logOf(x)), x);
    }
}

TEST(GF2mTest, MulByZero)
{
    const GF2m field(8);
    EXPECT_EQ(field.mul(0, 123), 0u);
    EXPECT_EQ(field.mul(77, 0), 0u);
}

TEST(BchTest, PaperCheckbitBudgets)
{
    // DECTED 21, TECQED 31, 6EC7ED 61 bits over 512 data bits — the
    // widths Killi Table 4 assumes for the ECC cache entries.
    const Bch dected(512, 2, true);
    EXPECT_EQ(dected.checkBits(), 21u);
    EXPECT_EQ(dected.bchCheckBits(), 20u);
    EXPECT_EQ(dected.correctsUpTo(), 2u);
    EXPECT_EQ(dected.detectsUpTo(), 3u);

    const Bch tecqed(512, 3, true);
    EXPECT_EQ(tecqed.checkBits(), 31u);

    const Bch hexa(512, 6, true);
    EXPECT_EQ(hexa.checkBits(), 61u);
}

TEST(BchTest, Names)
{
    EXPECT_EQ(Bch(512, 2, true).name().substr(0, 6), "DECTED");
    EXPECT_EQ(Bch(512, 3, true).name().substr(0, 6), "TECQED");
    EXPECT_EQ(Bch(512, 6, true).name().substr(0, 6), "6EC7ED");
}

TEST(BchTest, CleanCodewordDecodesClean)
{
    const Bch code(512, 2, true);
    Rng rng(3);
    for (int iter = 0; iter < 10; ++iter) {
        BitVec data(512);
        data.randomize(rng);
        BitVec check = code.encode(data);
        const BitVec golden = data;
        const DecodeResult res = code.decode(data, check);
        EXPECT_EQ(res.status, DecodeStatus::NoError);
        EXPECT_EQ(data, golden);
    }
}

class BchCapability
    : public ::testing::TestWithParam<std::tuple<unsigned, unsigned>>
{
};

TEST_P(BchCapability, CorrectsUpToTErrorsAnywhere)
{
    const auto [t, nerr] = GetParam();
    if (nerr > t)
        GTEST_SKIP() << "covered by detection test";
    const Bch code(512, t, true);
    Rng rng(100 * t + nerr);
    for (int iter = 0; iter < 60; ++iter) {
        BitVec data(512);
        data.randomize(rng);
        BitVec check = code.encode(data);
        const BitVec goldenData = data;
        const BitVec goldenCheck = check;

        const auto errs =
            distinctPositions(rng, nerr, code.codewordBits());
        applyErrors(data, check, errs);
        const DecodeResult res = code.decode(data, check);
        if (nerr == 0) {
            EXPECT_EQ(res.status, DecodeStatus::NoError);
        } else {
            EXPECT_EQ(res.status, DecodeStatus::Corrected);
            EXPECT_EQ(res.correctedBits, nerr);
        }
        EXPECT_EQ(data, goldenData);
        EXPECT_EQ(check, goldenCheck);
    }
}

TEST_P(BchCapability, DetectsTPlusOneErrors)
{
    const auto [t, nerr] = GetParam();
    if (nerr != t + 1)
        GTEST_SKIP();
    const Bch code(512, t, true);
    Rng rng(200 * t);
    for (int iter = 0; iter < 60; ++iter) {
        BitVec data(512);
        data.randomize(rng);
        BitVec check = code.encode(data);
        const auto errs =
            distinctPositions(rng, nerr, code.codewordBits());
        applyErrors(data, check, errs);
        const DecodeResult res = code.decode(data, check);
        EXPECT_EQ(res.status, DecodeStatus::DetectedUncorrectable)
            << t + 1 << " errors must be detected, not corrected";
    }
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, BchCapability,
    ::testing::Values(std::make_tuple(2u, 0u), std::make_tuple(2u, 1u),
                      std::make_tuple(2u, 2u), std::make_tuple(2u, 3u),
                      std::make_tuple(3u, 1u), std::make_tuple(3u, 2u),
                      std::make_tuple(3u, 3u), std::make_tuple(3u, 4u),
                      std::make_tuple(6u, 1u), std::make_tuple(6u, 4u),
                      std::make_tuple(6u, 6u), std::make_tuple(6u, 7u)));

TEST(BchTest, ExtendedParityBitAloneCorrects)
{
    const Bch code(512, 2, true);
    Rng rng(4);
    BitVec data(512);
    data.randomize(rng);
    BitVec check = code.encode(data);
    const BitVec goldenCheck = check;
    check.flip(code.checkBits() - 1); // the extended parity bit
    const DecodeResult res = code.decode(data, check);
    EXPECT_EQ(res.status, DecodeStatus::Corrected);
    EXPECT_EQ(check, goldenCheck);
}

TEST(BchTest, DataPlusExtendedParityCorrects)
{
    // One data error plus the extended bit = 2 errors <= t for
    // DECTED; the parity-inconsistency path must absorb it.
    const Bch code(512, 2, true);
    Rng rng(5);
    BitVec data(512);
    data.randomize(rng);
    BitVec check = code.encode(data);
    const BitVec goldenData = data;
    const BitVec goldenCheck = check;
    data.flip(100);
    check.flip(code.checkBits() - 1);
    const DecodeResult res = code.decode(data, check);
    EXPECT_EQ(res.status, DecodeStatus::Corrected);
    EXPECT_EQ(data, goldenData);
    EXPECT_EQ(check, goldenCheck);
}

TEST(BchTest, ProbeAgreesWithDecodeWithinDetection)
{
    const Bch code(512, 2, true);
    Rng rng(6);
    for (int iter = 0; iter < 150; ++iter) {
        const std::size_t nerr = rng.below(4); // 0..3 <= detectsUpTo
        const auto errs =
            distinctPositions(rng, nerr, code.codewordBits());

        BitVec data(512);
        data.randomize(rng);
        BitVec check = code.encode(data);
        const BitVec golden = data;
        applyErrors(data, check, errs);

        const DecodeResult predicted = code.probe(errs);
        const DecodeResult real = code.decode(data, check);
        EXPECT_EQ(real.status, predicted.status);
        if (predicted.status == DecodeStatus::Corrected ||
            predicted.status == DecodeStatus::NoError) {
            EXPECT_EQ(data, golden);
        }
    }
}

TEST(BchTest, ProbeNeverClaimsSuccessBeyondDetection)
{
    // With t+2 or more errors the decoder may miscorrect; probe(),
    // being omniscient, must label those Miscorrected rather than
    // Corrected, and the real decoder must match its belief.
    const Bch code(512, 2, true);
    Rng rng(7);
    unsigned miscorrections = 0;
    for (int iter = 0; iter < 150; ++iter) {
        const std::size_t nerr = 4 + rng.below(3); // 4..6 errors
        const auto errs =
            distinctPositions(rng, nerr, code.codewordBits());
        const DecodeResult predicted = code.probe(errs);
        EXPECT_NE(predicted.status, DecodeStatus::NoError);
        EXPECT_NE(predicted.status, DecodeStatus::Corrected);
        if (predicted.status == DecodeStatus::Miscorrected) {
            ++miscorrections;
            BitVec data(512);
            data.randomize(rng);
            BitVec check = code.encode(data);
            const BitVec golden = data;
            applyErrors(data, check, errs);
            const DecodeResult real = code.decode(data, check);
            EXPECT_EQ(real.status, DecodeStatus::Corrected);
            EXPECT_NE(data, golden);
        }
    }
    // At least some 4+-error patterns must alias (sanity that the
    // Miscorrected path is actually exercised).
    EXPECT_GT(miscorrections, 0u);
}

// --- probe()'s within-capability shortcut ----------------------------

TEST(BchTest, ProbeMatchesDecodeOnEveryDectedOneAndTwoErrorSet)
{
    // Every position of the 533-bit codeword, the extended parity
    // bit (index 532) included.
    const Bch code(512, 2, true);
    const std::size_t n = code.codewordBits();
    ASSERT_EQ(n, 533u);
    for (std::size_t a = 0; a < n; ++a) {
        ASSERT_EQ(probeDecodeMismatch(code, {a}), "");
        for (std::size_t b = a + 1; b < n; ++b)
            ASSERT_EQ(probeDecodeMismatch(code, {a, b}), "");
    }
}

TEST(BchTest, ProbeMatchesDecodeOnRandomSetsWithinCapability)
{
    Rng rng(61);
    for (const unsigned t : {3u, 6u}) {
        const Bch code(512, t, true);
        for (int iter = 0; iter < 2000; ++iter) {
            const auto errs = distinctPositions(
                rng, rng.below(t + 1), code.codewordBits());
            ASSERT_EQ(probeDecodeMismatch(code, errs), "");
        }
    }
}

TEST(BchTest, ProbeMatchesDecodeWithoutExtendedBit)
{
    const Bch code(512, 2, false);
    const std::size_t n = code.codewordBits();
    for (std::size_t a = 0; a < n; ++a)
        ASSERT_EQ(probeDecodeMismatch(code, {a}), "");
    Rng rng(62);
    for (int iter = 0; iter < 2000; ++iter)
        ASSERT_EQ(probeDecodeMismatch(
                      code, distinctPositions(rng, 2, n)),
                  "");
}

TEST(BchDeathTest, ProbeRejectsPositionsOutsideTheCodeword)
{
    const Bch extended(512, 2, true);
    const Bch plain(512, 2, false);
    // Within capability, where probe() answers without decoding,
    // and beyond it.
    EXPECT_DEATH(extended.probe({3, 533}), "out of codeword");
    EXPECT_DEATH(plain.probe({532}), "out of codeword");
    EXPECT_DEATH(extended.probe({1, 2, 3, 600}), "out of codeword");
}

TEST(BchTest, NonExtendedVariantConstructs)
{
    const Bch code(512, 2, false);
    EXPECT_EQ(code.checkBits(), 20u);
    EXPECT_EQ(code.detectsUpTo(), 2u);
    Rng rng(8);
    BitVec data(512);
    data.randomize(rng);
    BitVec check = code.encode(data);
    const BitVec golden = data;
    data.flip(17);
    data.flip(400);
    const DecodeResult res = code.decode(data, check);
    EXPECT_EQ(res.status, DecodeStatus::Corrected);
    EXPECT_EQ(data, golden);
}

TEST(BchTest, SmallPayloadGeometry)
{
    // 64-bit payload DECTED fits in GF(2^7): r = 14 + 1.
    const Bch code(64, 2, true);
    EXPECT_LE(code.checkBits(), 15u);
    Rng rng(9);
    BitVec data(64);
    data.randomize(rng);
    BitVec check = code.encode(data);
    const BitVec golden = data;
    data.flip(0);
    data.flip(63);
    EXPECT_EQ(code.decode(data, check).status, DecodeStatus::Corrected);
    EXPECT_EQ(data, golden);
}

// --- Bit-sliced vs reference differential -----------------------------

TEST(BchTest, SlicedEncodeMatchesLfsrReference)
{
    Rng rng(31337);
    for (const unsigned t : {2u, 3u, 4u}) {
        for (const std::size_t width : {64u, 128u, 512u}) {
            const Bch code(width, t, true);
            for (int iter = 0; iter < 25; ++iter) {
                BitVec data(width);
                data.randomize(rng);
                const BitVec check = code.encode(data);
                EXPECT_EQ(check, code.encodeReference(data));
                BitVec into(check.size());
                code.encodeInto(data, into);
                EXPECT_EQ(into, check);
            }
        }
    }
    // Non-extended variant shares the slicer minus the parity bit.
    const Bch plain(128, 2, false);
    for (int iter = 0; iter < 25; ++iter) {
        BitVec data(128);
        data.randomize(rng);
        EXPECT_EQ(plain.encode(data), plain.encodeReference(data));
    }
}

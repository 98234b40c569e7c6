/**
 * @file
 * Single Error Correction, Double Error Detection code implemented as
 * an extended (shortened) Hamming code.
 *
 * For the paper's 64-byte cache line this instantiates as
 * SECDED(523,512): 512 data bits, 10 Hamming checkbits, and one
 * overall parity bit, i.e.\ the 11 checkbits of Killi Table 3. The
 * checkbits themselves are part of the protected codeword, matching
 * the paper's §5.3 assumption that stored checkbits can also fail
 * under low voltage.
 *
 * Killi's Table 2 classification reads two signals from this code:
 * whether the syndrome is non-zero ("Syndrome" column) and whether
 * the overall/global parity mismatches ("G.Parity" column). Both are
 * exposed on DecodeResult.
 *
 * decode() and probe() are where the record-replay bisector injects
 * its one-shot fault: while a ScopedPerturbDecode
 * (common/replay_probe.hh) is armed on the calling thread, its Nth
 * syndrome evaluation there flips syndrome bit 0.
 */

#ifndef KILLI_ECC_SECDED_HH
#define KILLI_ECC_SECDED_HH

#include <cstdint>
#include <vector>

#include "ecc/bitslicer.hh"
#include "ecc/code.hh"

namespace killi
{

class Secded : public BlockCode
{
  public:
    /** Build a SECDED code over @p data_bits payload bits. */
    explicit Secded(std::size_t data_bits);

    std::size_t dataBits() const override { return k; }
    std::size_t checkBits() const override { return h + 1; }
    unsigned correctsUpTo() const override { return 1; }
    unsigned detectsUpTo() const override { return 2; }
    std::string name() const override;

    BitVec encode(const BitVec &data) const override;
    void encodeInto(const BitVec &data, BitVec &out) const override;
    DecodeResult decode(BitVec &data, BitVec &check) const override;
    DecodeResult
    probe(const std::vector<std::size_t> &errorPositions) const override;

    /**
     * The original h-pass mask implementations, kept for differential
     * tests and codec_micro's reference twins; results are identical to
     * encode() and decode().
     */
    BitVec encodeReference(const BitVec &data) const;
    DecodeResult decodeReference(BitVec &data, BitVec &check) const;

  private:
    /**
     * Hamming-space syndrome and extended parity for a received
     * word; shared by decode() and probe().
     */
    struct RawSyndrome
    {
        std::uint32_t syndrome = 0;
        bool overallMismatch = false;
    };

    /** Classify a raw syndrome into the believed decoder action. */
    struct Action
    {
        DecodeStatus status;
        /** Combined-index position to flip, or npos if none. */
        std::size_t flipPos;
        static constexpr std::size_t npos = ~std::size_t{0};
    };

    Action interpret(const RawSyndrome &raw) const;

    /** Shared decode tail: act on a raw syndrome, build the result. */
    DecodeResult applyAction(const RawSyndrome &raw, BitVec &data,
                             BitVec &check) const;

    /** Combined index of the data/check bit at Hamming position. */
    std::size_t combinedFromHamming(std::uint32_t pos) const;

    std::size_t k; //!< payload bits
    std::size_t h; //!< Hamming checkbits (excluding overall parity)
    std::size_t m; //!< used Hamming positions = k + h

    /** Per-syndrome-bit payload masks (reference encode path). */
    std::vector<BitVec> syndromeMasks;
    /** Byte-sliced data -> packed (syndrome | overall) map. */
    BitSlicer slicer;
    /** data index -> Hamming position (1-based, non-power-of-two). */
    std::vector<std::uint32_t> dataToHamming;
    /** Hamming position -> data index, or -1 for check positions. */
    std::vector<std::int32_t> hammingToData;
};

} // namespace killi

#endif // KILLI_ECC_SECDED_HH

/**
 * @file
 * Shortened binary BCH codes with an optional extended (overall)
 * parity bit, providing t-error correction and (t+1)-error detection.
 *
 * Instantiations used by the paper (all over 512 data bits, GF(2^10)):
 *   - DECTED:  t=2, 20 BCH checkbits + 1 extended parity = 21 bits
 *   - TECQED:  t=3, 30 + 1 = 31 bits
 *   - 6EC7ED:  t=6, 60 + 1 = 61 bits
 * These checkbit counts match the widths Killi Table 4/§5.2 assumes.
 *
 * Encoding is systematic LFSR polynomial division; decoding computes
 * syndromes, runs Berlekamp-Massey to find the error locator, and a
 * Chien search to locate roots. Codeword polynomial layout: powers
 * [0, r) hold checkbits, powers [r, r+k) hold data; combined bit
 * index i < k maps to power r + i, index k + j maps to power j, and
 * (when extended) index k + r is the overall parity bit.
 */

#ifndef KILLI_ECC_BCH_HH
#define KILLI_ECC_BCH_HH

#include <cstdint>
#include <memory>
#include <vector>

#include "ecc/bitslicer.hh"
#include "ecc/code.hh"
#include "ecc/gf2m.hh"

namespace killi
{

class Bch : public BlockCode
{
  public:
    /**
     * Build a shortened BCH code.
     *
     * @param data_bits payload width k
     * @param t designed correction capability
     * @param extended append an overall parity bit for +1 detection
     */
    Bch(std::size_t data_bits, unsigned t, bool extended = true);

    std::size_t dataBits() const override { return k; }
    std::size_t checkBits() const override
    {
        return r + (hasExtended ? 1 : 0);
    }
    unsigned correctsUpTo() const override { return tCap; }
    unsigned detectsUpTo() const override
    {
        return tCap + (hasExtended ? 1 : 0);
    }
    std::string name() const override;

    /** Degree of the generator polynomial (BCH checkbits). */
    std::size_t bchCheckBits() const { return r; }

    BitVec encode(const BitVec &data) const override;
    void encodeInto(const BitVec &data, BitVec &out) const override;
    DecodeResult decode(BitVec &data, BitVec &check) const override;
    /**
     * decode()'s outcome for flips at @p errorPositions, which must
     * be distinct. Up to t errors are Corrected without running the
     * decoder; more go through the same solve() as decode().
     */
    DecodeResult
    probe(const std::vector<std::size_t> &errorPositions) const override;

    /** Bit-serial LFSR encode, kept for differential tests. */
    BitVec encodeReference(const BitVec &data) const;

  private:
    /** Precompute the byte-sliced encode table (hot path). */
    void buildSlicer();
    /** What the algebraic decoder would do for a given syndrome set. */
    struct Action
    {
        bool correctable = false;
        /** Combined-index positions the decoder would flip. */
        std::vector<std::size_t> flips;
    };

    /** Polynomial power of combined bit index (data or BCH check). */
    std::size_t powerOf(std::size_t combined) const;

    /** Combined bit index of polynomial power, npos if out of range. */
    std::size_t combinedOf(std::size_t power) const;

    /**
     * Run Berlekamp-Massey + Chien on 2t syndromes (syn[j] holds
     * S_{j+1}) and the extended-parity observation.
     */
    Action solve(const std::vector<std::uint32_t> &syn,
                 bool overallMismatch) const;

    std::size_t k;     //!< payload bits
    unsigned tCap;     //!< designed correction capability
    bool hasExtended;  //!< overall parity bit present
    std::size_t r = 0; //!< generator degree (BCH checkbits)

    std::unique_ptr<GF2m> field;
    /** Generator polynomial coefficients g[0..r] (g[r] == 1). */
    std::vector<std::uint8_t> gen;
    /** Byte-sliced data -> packed checkbit map. */
    BitSlicer slicer;
    /** Route encode() through the sliced path. */
    bool useSliced = false;
};

} // namespace killi

#endif // KILLI_ECC_BCH_HH

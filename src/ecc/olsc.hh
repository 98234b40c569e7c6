/**
 * @file
 * Orthogonal Latin Square Codes with one-step majority-logic
 * decoding, as used by MS-ECC (Chishti et al., MICRO'09) and by
 * Killi's OLSC-equipped ECC cache in paper §5.5 / Table 7.
 *
 * Data is arranged as an m-by-m array (m prime), shortened to the
 * payload width. 2t check groups each partition the cells into m
 * classes with one parity bit per class: group 0 by row, group 1 by
 * column, groups 2..2t-1 by the Latin squares L_a(r,c) = (a*r + c)
 * mod m for a = 1..2t-2. Any two distinct cells co-occur in at most
 * one group's class, which is the orthogonality property that makes
 * the threshold-(t+1)-of-2t majority vote correct any t errors.
 */

#ifndef KILLI_ECC_OLSC_HH
#define KILLI_ECC_OLSC_HH

#include <vector>

#include "ecc/bitslicer.hh"
#include "ecc/code.hh"

namespace killi
{

class Olsc : public BlockCode
{
  public:
    /**
     * @param data_bits payload width (must be <= m*m)
     * @param m array dimension; must be prime and >= 2t - 1
     * @param t correction capability
     */
    Olsc(std::size_t data_bits, unsigned m, unsigned t);

    std::size_t dataBits() const override { return k; }
    std::size_t checkBits() const override
    {
        return std::size_t{2} * tCap * dim;
    }
    unsigned correctsUpTo() const override { return tCap; }
    unsigned detectsUpTo() const override { return tCap; }
    std::string name() const override;

    BitVec encode(const BitVec &data) const override;
    void encodeInto(const BitVec &data, BitVec &out) const override;
    DecodeResult decode(BitVec &data, BitVec &check) const override;
    DecodeResult
    probe(const std::vector<std::size_t> &errorPositions) const override;

    /** Per-class dotParity encode, kept for differential tests. */
    BitVec encodeReference(const BitVec &data) const;

  private:
    /** Class of data bit @p d within check group @p g. */
    unsigned classOf(unsigned g, std::size_t d) const;

    /** Combined index of the check bit for (group, class). */
    std::size_t
    checkIndex(unsigned g, unsigned cls) const
    {
        return k + std::size_t{g} * dim + cls;
    }

    /**
     * Majority-decode an error-syndrome table: eqFail[g][cls] says
     * whether that check equation currently fails. Returns data-bit
     * flips chosen by the threshold vote.
     */
    std::vector<std::size_t>
    majorityFlips(const std::vector<std::vector<bool>> &eqFail) const;

    std::size_t k;
    unsigned dim;  //!< m
    unsigned tCap; //!< t

    /** masks[g][cls]: payload mask of the class, for encode. */
    std::vector<std::vector<BitVec>> masks;
    /** Byte-sliced data -> packed check-bit map. */
    BitSlicer slicer;
};

} // namespace killi

#endif // KILLI_ECC_OLSC_HH

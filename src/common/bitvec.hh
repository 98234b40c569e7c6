/**
 * @file
 * A compact fixed-width bit vector used for cache-line payloads,
 * codeword storage, parity masks, and fault overlays.
 *
 * Widths in this project are odd (e.g.\ 523 bits for a SECDED codeword,
 * 33 bits for a parity-protected segment), so the vector is backed by
 * 64-bit words with the unused high bits of the last word kept at zero
 * as a class invariant.
 */

#ifndef KILLI_COMMON_BITVEC_HH
#define KILLI_COMMON_BITVEC_HH

#include <cassert>
#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

namespace killi
{

class Rng;

/**
 * Fixed-width vector of bits with word-level bulk operations.
 *
 * The width is set at construction and never changes. All bitwise
 * operators require equal widths (checked with assertions in debug
 * builds, undefined otherwise).
 */
class BitVec
{
  public:
    /** Construct an all-zero vector of @p nbits bits. */
    explicit BitVec(std::size_t nbits = 0);

    /** Number of bits in the vector. */
    std::size_t size() const { return numBits; }

    /** Number of backing 64-bit words. */
    std::size_t numWords() const { return words.size(); }

    /** Read bit @p pos (0 = least significant of word 0). */
    bool get(std::size_t pos) const;

    /** Set bit @p pos to @p value. */
    void set(std::size_t pos, bool value = true);

    /** Invert bit @p pos. */
    void flip(std::size_t pos);

    /** Reset all bits to zero. */
    void clear();

    /** True iff every bit is zero. */
    bool zero() const;

    /** Population count (number of set bits). */
    std::size_t popcount() const;

    /** XOR-reduction of all bits (overall parity). */
    bool parity() const;

    /** Raw read access to backing word @p idx. */
    std::uint64_t word(std::size_t idx) const { return words[idx]; }

    /**
     * Overwrite backing word @p idx. Bits beyond size() are masked
     * off to preserve the trailing-zero invariant.
     */
    void
    setWord(std::size_t idx, std::uint64_t value)
    {
        assert(idx < words.size());
        words[idx] = value;
        if (idx == words.size() - 1)
            maskTail();
    }

    /** In-place XOR with another vector of identical width. */
    BitVec &operator^=(const BitVec &other);

    /** In-place AND with another vector of identical width. */
    BitVec &operator&=(const BitVec &other);

    /** In-place OR with another vector of identical width. */
    BitVec &operator|=(const BitVec &other);

    BitVec operator^(const BitVec &other) const;
    BitVec operator&(const BitVec &other) const;
    BitVec operator|(const BitVec &other) const;

    bool operator==(const BitVec &other) const = default;

    /**
     * Parity of (*this AND mask) without materializing a temporary:
     * the inner product over GF(2). This is the hot operation of
     * every linear codec in the project.
     */
    bool dotParity(const BitVec &mask) const;

    /** Count of set bits in (*this XOR other): Hamming distance. */
    std::size_t hammingDistance(const BitVec &other) const;

    /** Fill with independent fair coin flips from @p rng. */
    void randomize(Rng &rng);

    /** Positions of all set bits, ascending. */
    std::vector<std::size_t> onesPositions() const;

    /** Binary string, most significant bit first (for diagnostics). */
    std::string toString() const;

    /** Build from a binary string as produced by toString(). */
    static BitVec fromString(const std::string &text);

  private:
    /** Clear the bits of the last word beyond size(). */
    void
    maskTail()
    {
        const std::size_t rem = numBits & 63;
        if (rem && !words.empty())
            words.back() &= (std::uint64_t{1} << rem) - 1;
    }

    std::size_t numBits;
    std::vector<std::uint64_t> words;
};

} // namespace killi

#endif // KILLI_COMMON_BITVEC_HH

#include "common/bitvec.hh"

#include <bit>
#include <cassert>

#include "common/log.hh"
#include "common/rng.hh"

namespace killi
{

BitVec::BitVec(std::size_t nbits)
    : numBits(nbits), words((nbits + 63) / 64, 0)
{
}

bool
BitVec::get(std::size_t pos) const
{
    assert(pos < numBits);
    return (words[pos >> 6] >> (pos & 63)) & 1;
}

void
BitVec::set(std::size_t pos, bool value)
{
    assert(pos < numBits);
    const std::uint64_t mask = std::uint64_t{1} << (pos & 63);
    if (value)
        words[pos >> 6] |= mask;
    else
        words[pos >> 6] &= ~mask;
}

void
BitVec::flip(std::size_t pos)
{
    assert(pos < numBits);
    words[pos >> 6] ^= std::uint64_t{1} << (pos & 63);
}

void
BitVec::clear()
{
    for (auto &w : words)
        w = 0;
}

bool
BitVec::zero() const
{
    for (auto w : words) {
        if (w)
            return false;
    }
    return true;
}

std::size_t
BitVec::popcount() const
{
    std::size_t count = 0;
    for (auto w : words)
        count += std::popcount(w);
    return count;
}

bool
BitVec::parity() const
{
    std::uint64_t acc = 0;
    for (auto w : words)
        acc ^= w;
    return std::popcount(acc) & 1;
}

BitVec &
BitVec::operator^=(const BitVec &other)
{
    assert(numBits == other.numBits);
    for (std::size_t i = 0; i < words.size(); ++i)
        words[i] ^= other.words[i];
    return *this;
}

BitVec &
BitVec::operator&=(const BitVec &other)
{
    assert(numBits == other.numBits);
    for (std::size_t i = 0; i < words.size(); ++i)
        words[i] &= other.words[i];
    return *this;
}

BitVec &
BitVec::operator|=(const BitVec &other)
{
    assert(numBits == other.numBits);
    for (std::size_t i = 0; i < words.size(); ++i)
        words[i] |= other.words[i];
    return *this;
}

BitVec
BitVec::operator^(const BitVec &other) const
{
    BitVec result(*this);
    result ^= other;
    return result;
}

BitVec
BitVec::operator&(const BitVec &other) const
{
    BitVec result(*this);
    result &= other;
    return result;
}

BitVec
BitVec::operator|(const BitVec &other) const
{
    BitVec result(*this);
    result |= other;
    return result;
}

bool
BitVec::dotParity(const BitVec &mask) const
{
    assert(numBits == mask.numBits);
    std::uint64_t acc = 0;
    for (std::size_t i = 0; i < words.size(); ++i)
        acc ^= words[i] & mask.words[i];
    return std::popcount(acc) & 1;
}

std::size_t
BitVec::hammingDistance(const BitVec &other) const
{
    assert(numBits == other.numBits);
    std::size_t count = 0;
    for (std::size_t i = 0; i < words.size(); ++i)
        count += std::popcount(words[i] ^ other.words[i]);
    return count;
}

void
BitVec::randomize(Rng &rng)
{
    for (auto &w : words)
        w = rng.next64();
    maskTail();
}

std::vector<std::size_t>
BitVec::onesPositions() const
{
    std::vector<std::size_t> positions;
    for (std::size_t i = 0; i < words.size(); ++i) {
        std::uint64_t w = words[i];
        while (w) {
            const int bit = std::countr_zero(w);
            positions.push_back(i * 64 + bit);
            w &= w - 1;
        }
    }
    return positions;
}

std::string
BitVec::toString() const
{
    std::string text;
    text.reserve(numBits);
    for (std::size_t i = numBits; i-- > 0;)
        text.push_back(get(i) ? '1' : '0');
    return text;
}

BitVec
BitVec::fromString(const std::string &text)
{
    BitVec vec(text.size());
    for (std::size_t i = 0; i < text.size(); ++i) {
        const char c = text[text.size() - 1 - i];
        if (c != '0' && c != '1')
            fatal("BitVec::fromString: invalid character '%c'", c);
        vec.set(i, c == '1');
    }
    return vec;
}

} // namespace killi

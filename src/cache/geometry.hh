/**
 * @file
 * Set-associative cache geometry helpers shared by the L1, the L2,
 * and the ECC cache.
 */

#ifndef KILLI_CACHE_GEOMETRY_HH
#define KILLI_CACHE_GEOMETRY_HH

#include <bit>
#include <cstddef>

#include "common/log.hh"
#include "common/types.hh"

namespace killi
{

/**
 * The shape of one cache. The constructor derives the line shift and
 * the set count once, so an address splits into (set, tag) with one
 * shift and one quotient/remainder instead of the chained divides of
 * addr / lineBytes / numSets(). The four shape fields are set only
 * by the constructor; a copy assigns the whole geometry.
 */
struct CacheGeometry
{
    explicit CacheGeometry(std::size_t size_bytes = 2 * 1024 * 1024,
                           unsigned assoc_ = 16, unsigned line_bytes = 64,
                           unsigned banks_ = 16)
        : sizeBytes(size_bytes), assoc(assoc_), lineBytes(line_bytes),
          banks(banks_)
    {
        if (!std::has_single_bit(line_bytes))
            fatal("CacheGeometry: line size %u is not a power of two",
                  line_bytes);
        lineShift = static_cast<unsigned>(std::countr_zero(line_bytes));
        sets = numLines() / assoc;
    }

    std::size_t sizeBytes;
    unsigned assoc;
    unsigned lineBytes;
    unsigned banks;

    std::size_t
    numLines() const
    {
        return sizeBytes / lineBytes;
    }

    std::size_t numSets() const { return sets; }

    Addr
    lineAddr(Addr addr) const
    {
        return addr & ~static_cast<Addr>(lineBytes - 1);
    }

    std::size_t
    setOf(Addr addr) const
    {
        return (addr >> lineShift) % sets;
    }

    Addr
    tagOf(Addr addr) const
    {
        return (addr >> lineShift) / sets;
    }

    /** Line address of the line holding @p tag in @p set (the
     *  inverse of setOf/tagOf). */
    Addr
    addrOf(Addr tag, std::size_t set) const
    {
        return (tag * sets + set) << lineShift;
    }

    unsigned
    bankOf(Addr addr) const
    {
        return static_cast<unsigned>(setOf(addr) % banks);
    }

    /** Flat physical line index of (set, way): the fault-map key. */
    std::size_t
    lineId(std::size_t set, unsigned way) const
    {
        return set * assoc + way;
    }

  private:
    unsigned lineShift = 0;
    std::size_t sets = 0;
};

} // namespace killi

#endif // KILLI_CACHE_GEOMETRY_HH

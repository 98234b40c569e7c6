/**
 * @file
 * Golden memory: the simulator's data-integrity oracle.
 *
 * Rather than storing every 64-byte line, memory contents are a
 * deterministic function of (line address, version); writes bump the
 * version. The cache hierarchy carries the version alongside cached
 * data, so at every delivery point the simulator can regenerate the
 * golden value and detect Silent Data Corruption introduced by the
 * low-voltage fault overlay — the end-to-end guarantee Killi's
 * write-through design must provide.
 *
 * The versions live in a flat open-addressing table: a power-of-two
 * array of (line address, version) slots, probed linearly from a
 * multiplicative hash of the address and kept at most half full. A
 * written line's version is at least 1, so version 0 marks an empty
 * slot; a lookup walks from the home slot until it finds the
 * address or an empty slot (never written: version 0). Lines are
 * never erased, so no tombstones are needed.
 */

#ifndef KILLI_SIM_GOLDEN_HH
#define KILLI_SIM_GOLDEN_HH

#include <bit>
#include <cstdint>
#include <vector>

#include "common/bitvec.hh"
#include "common/types.hh"

namespace killi
{

class GoldenMemory
{
  public:
    explicit GoldenMemory(unsigned line_bytes = 64)
        : lineBytes(line_bytes), slots(kInitialSlots)
    {
    }

    unsigned lineBits() const { return lineBytes * 8; }

    /** Current version of @p lineAddr (0 if never written). */
    std::uint32_t
    version(Addr lineAddr) const
    {
        for (std::size_t i = home(lineAddr);; i = next(i)) {
            const Slot &slot = slots[i];
            if (slot.ver == 0 || slot.addr == lineAddr)
                return slot.ver;
        }
    }

    /** Record a store: bumps the line's version and returns it. */
    std::uint32_t
    write(Addr lineAddr)
    {
        if (2 * (used + 1) > slots.size())
            grow();
        for (std::size_t i = home(lineAddr);; i = next(i)) {
            Slot &slot = slots[i];
            if (slot.ver == 0) {
                slot.addr = lineAddr;
                ++used;
            } else if (slot.addr != lineAddr) {
                continue;
            }
            if (++slot.ver == 0)
                versionOverflow(lineAddr);
            return slot.ver;
        }
    }

    /** The (deterministic) content of @p lineAddr at @p ver. */
    BitVec data(Addr lineAddr, std::uint32_t ver) const;

    /** data() into @p out, reusing its buffer when it already has
     *  lineBits() bits (a cache line refilled in place). */
    void dataInto(Addr lineAddr, std::uint32_t ver, BitVec &out) const;

    /** Content at the line's current version. */
    BitVec
    data(Addr lineAddr) const
    {
        return data(lineAddr, version(lineAddr));
    }

  private:
    /** One table entry; ver == 0 marks it empty. */
    struct Slot
    {
        Addr addr = 0;
        std::uint32_t ver = 0;
    };

    static constexpr std::size_t kInitialSlots = 1024;

    /** Fibonacci hash of @p lineAddr onto the table. */
    std::size_t
    home(Addr lineAddr) const
    {
        return std::size_t((lineAddr * 0x9e3779b97f4a7c15ULL) >> shift);
    }

    std::size_t
    next(std::size_t i) const
    {
        return (i + 1) & (slots.size() - 1);
    }

    /** Double the table and re-insert every written line. */
    void grow();

    /** A line's version wrapped to 0 (the empty-slot mark). */
    [[noreturn]] static void versionOverflow(Addr lineAddr);

    unsigned lineBytes;
    std::vector<Slot> slots;
    std::size_t used = 0; //!< slots holding a written line
    /** 64 - log2(slots.size()): home() keeps the hash's top bits. */
    unsigned shift = 64 - std::countr_zero(kInitialSlots);
};

} // namespace killi

#endif // KILLI_SIM_GOLDEN_HH

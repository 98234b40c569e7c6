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
 */

#ifndef KILLI_SIM_GOLDEN_HH
#define KILLI_SIM_GOLDEN_HH

#include <cstdint>
#include <unordered_map>

#include "common/bitvec.hh"
#include "common/types.hh"

namespace killi
{

class GoldenMemory
{
  public:
    explicit GoldenMemory(unsigned line_bytes = 64)
        : lineBytes(line_bytes)
    {
    }

    unsigned lineBits() const { return lineBytes * 8; }

    /** Current version of @p lineAddr (0 if never written). */
    std::uint32_t
    version(Addr lineAddr) const
    {
        const auto it = versions.find(lineAddr);
        return it == versions.end() ? 0 : it->second;
    }

    /** Record a store: bumps the line's version and returns it. */
    std::uint32_t
    write(Addr lineAddr)
    {
        return ++versions[lineAddr];
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
    unsigned lineBytes;
    std::unordered_map<Addr, std::uint32_t> versions;
};

} // namespace killi

#endif // KILLI_SIM_GOLDEN_HH

#include "sim/golden.hh"

#include <utility>

#include "common/log.hh"

namespace killi
{

namespace
{
/** splitmix64 mixing for deterministic content generation. */
std::uint64_t
mix(std::uint64_t z)
{
    z += 0x9e3779b97f4a7c15ULL;
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
}
} // namespace

void
GoldenMemory::grow()
{
    const std::vector<Slot> previous =
        std::exchange(slots, std::vector<Slot>(slots.size() * 2));
    --shift;
    for (const Slot &slot : previous) {
        if (slot.ver == 0)
            continue;
        std::size_t i = home(slot.addr);
        while (slots[i].ver != 0)
            i = next(i);
        slots[i] = slot;
    }
}

void
GoldenMemory::versionOverflow(Addr lineAddr)
{
    panic("GoldenMemory: version of line %#llx overflowed",
          static_cast<unsigned long long>(lineAddr));
}

BitVec
GoldenMemory::data(Addr lineAddr, std::uint32_t ver) const
{
    BitVec value(lineBits());
    dataInto(lineAddr, ver, value);
    return value;
}

void
GoldenMemory::dataInto(Addr lineAddr, std::uint32_t ver,
                       BitVec &out) const
{
    if (out.size() != lineBits())
        out = BitVec(lineBits());
    std::uint64_t state = mix(lineAddr * 0x2545f4914f6cdd1dULL + ver);
    for (std::size_t w = 0; w < out.numWords(); ++w) {
        state = mix(state);
        out.setWord(w, state);
    }
}

} // namespace killi

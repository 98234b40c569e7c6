/**
 * @file
 * Test helper: FNV-1a digests of a sampled die and of a map's active
 * set, for pinning samplers and activation by literal value.
 */

#ifndef KILLI_TESTS_FAULT_DIGEST_HH
#define KILLI_TESTS_FAULT_DIGEST_HH

#include <cstdint>
#include <cstring>
#include <span>

#include "fault/fault_map.hh"

namespace killi
{

/** Fold one line (its cell count, then every cell's bit, threshold
 *  bit pattern, stuck value and kind) into the FNV-1a state @p h. */
inline void
digestLine(std::uint64_t &h, std::span<const FaultCell> line)
{
    const auto mix = [&h](std::uint64_t v, int bytes) {
        for (int i = 0; i < bytes; ++i) {
            h ^= (v >> (8 * i)) & 0xFF;
            h *= 0x100000001b3ull;
        }
    };
    mix(line.size(), 4);
    for (const FaultCell &c : line) {
        std::uint32_t t;
        std::memcpy(&t, &c.threshold, sizeof t);
        mix(c.bit, 2);
        mix(t, 4);
        mix(c.stuckValue, 1);
        mix(unsigned(c.kind), 1);
    }
}

/** Digest of every cell of every line of a sampled die. */
inline std::uint64_t
populationDigest(const FaultPopulation &pop)
{
    std::uint64_t h = 0xcbf29ce484222325ull;
    for (const std::vector<FaultCell> &line : pop)
        digestLine(h, line);
    return h;
}

/** Digest of a map's active set (every line's lineFaults()), in the
 *  same encoding: a map activating every cell of a die digests like
 *  the die. */
inline std::uint64_t
activeDigest(const FaultMap &map)
{
    std::uint64_t h = 0xcbf29ce484222325ull;
    for (std::size_t l = 0; l < map.numLines(); ++l)
        digestLine(h, map.lineFaults(l));
    return h;
}

} // namespace killi

#endif // KILLI_TESTS_FAULT_DIGEST_HH

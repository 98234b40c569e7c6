/**
 * @file
 * Bisection to the first divergence between two recordings of the
 * "same" run — e.g. a recording and its replayed re-run, the
 * reference and bit-sliced codec builds, or two modes of one
 * build. Rather than diffing end-state aggregates, the bisector
 * binary-searches each stream's rolling prefix digests to the first
 * entry where the two runs part ways, then reports the earliest such
 * point across streams as a precise (tick, seq, stream, index) with
 * surrounding ktrace context from both sides.
 */

#ifndef KILLI_REPLAY_BISECT_HH
#define KILLI_REPLAY_BISECT_HH

#include <cstdint>
#include <string>
#include <vector>

#include "replay/recording.hh"

namespace killi::replay
{

/** One rendered trace record near the divergence point. */
struct BisectContext
{
    std::string side; //!< "a" | "b" | "both"
    std::uint64_t index = 0;
    Tick tick = 0;
    std::string name;
    std::uint64_t digest = 0;
};

struct BisectReport
{
    bool diverged = false;
    /** "rng" | "pop" | "trace" | "result". A stream that is a
     *  strict prefix of the other diverges at its end, rendered
     *  "(stream ended at N …)" on the shorter side. */
    std::string stream;
    std::uint64_t index = 0; //!< first divergent entry in the stream
    Tick tick = 0;           //!< sim time of the enclosing pop
    std::uint64_t seq = 0;   //!< seq of the enclosing pop
    std::string a;           //!< side-a entry, rendered
    std::string b;           //!< side-b entry, rendered
    /** Prefix-digest probes the binary search spent (test sanity:
     *  must be O(log n), not O(n)). */
    std::uint64_t probes = 0;
    std::vector<BisectContext> context;

    Json toJson() const;
    std::string summary() const;
};

/**
 * Find the first divergent entry between @p a and @p b. Streams are
 * compared via binary search over rolling prefix digests; the trace
 * stream participates only when both recordings carried trace with
 * the same compile-time mask. @p contextRadius trace records on each
 * side of the divergence are attached for debugging.
 */
BisectReport bisectRecordings(const Recording &a, const Recording &b,
                              std::size_t contextRadius = 3);

} // namespace killi::replay

#endif // KILLI_REPLAY_BISECT_HH

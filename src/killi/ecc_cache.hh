/**
 * @file
 * The decoupled ECC cache (paper §4.1): a small set-associative
 * structure holding error-protection metadata for the subset of L2
 * lines that currently need it (lines in DFH b'01 or b'10). It is
 * indexed by the protected line's L2 set (the "same physical
 * address"), while its tags hold the L2 (index, way) pair — cheaper
 * than a full physical tag.
 *
 * In hardware each entry stores the SECDED checkbits (11b) plus the
 * 12 fine parity bits that overflow the L2 line during training, 41
 * bits per entry with the tag (paper Table 3; the area model keeps
 * that size). The model stores no payload: the ECC cache is
 * fault-free, so its contents are a function of the protected line's
 * data, and the probes derive what they need from that data. An
 * entry models capacity. Because the structure is much smaller than
 * the L2, disjoint L2 sets contend for the same ECC set; evicting a
 * live entry forces the host to drop the L2 line it protects — the
 * contention effect behind the Fig. 4/5 sensitivity.
 */

#ifndef KILLI_KILLI_ECC_CACHE_HH
#define KILLI_KILLI_ECC_CACHE_HH

#include <cstdint>
#include <functional>
#include <vector>

#include "common/types.hh"
#include "trace/trace.hh"

namespace killi
{

/** The slot holding one protected L2 line's metadata. */
struct EccEntry
{
    bool valid = false;
    std::size_t l2Line = 0;  //!< protected L2 line id (index, way)
    std::uint64_t lastUse = 0;
};

/** Entry churn of an EccCache. */
struct EccCacheStats
{
    std::uint64_t allocs = 0;    //!< entries allocated
    std::uint64_t evictions = 0; //!< live entries evicted (drops an L2 line)
    std::uint64_t frees = 0;     //!< entries freed after training
};

class EccCache
{
  public:
    static constexpr std::size_t npos = ~std::size_t{0};

    /**
     * @param entries total entry count (L2 lines / ratio)
     * @param assoc associativity (paper: 4)
     * @param l2_assoc ways of the host L2 (to derive the L2 set of a
     *        line id for indexing)
     */
    EccCache(std::size_t entries, unsigned assoc, unsigned l2_assoc);
    EccCache(const EccCache &) = delete;
    EccCache &operator=(const EccCache &) = delete;

    std::size_t numEntries() const { return table.size(); }
    std::size_t numSets() const { return sets; }

    /** Locate the entry protecting @p l2Line; nullptr if absent. */
    EccEntry *find(std::size_t l2Line);
    const EccEntry *find(std::size_t l2Line) const;

    /** True iff @p l2Line already has an entry or its set has an
     *  invalid slot — i.e.\ it can be hosted without evicting a live
     *  entry (and thus without dropping another L2 line). */
    bool canHostWithoutEviction(std::size_t l2Line) const;

    /**
     * Allocate an entry for @p l2Line (which must not already have
     * one). If a live entry had to be evicted, its protected line id
     * is returned through @p evictedLine (npos otherwise); the
     * caller must drop that L2 line.
     */
    EccEntry *allocate(std::size_t l2Line, std::size_t &evictedLine);

    /** Release the entry protecting @p l2Line (no-op if absent). */
    void invalidate(std::size_t l2Line);

    /** MRU-promote in coordination with the L2 (paper §4.4). */
    void touch(std::size_t l2Line);

    /** Drop everything (DFH reset / voltage change). */
    void clear();

    /** Live entries (reporting/tests). */
    std::size_t validEntries() const;

    /** Raw entry table (invariant checking / the kcheck harness);
     *  invalid slots are included — test EccEntry::valid. */
    const std::vector<EccEntry> &entries() const { return table; }

    const EccCacheStats &stats() const { return counts; }

    /** Attach a trace sink for ecc.* events; @p now supplies the
     *  timestamp (the ECC cache has no clock of its own). */
    void
    setTrace(TraceSink *sink, std::function<Tick()> now)
    {
        trace = sink;
        clock = std::move(now);
    }

  private:
    std::size_t setOf(std::size_t l2Line) const;

    Tick tickNow() const { return clock ? clock() : 0; }

    unsigned assoc;
    unsigned l2Assoc;
    std::size_t sets;
    std::vector<EccEntry> table;
    std::uint64_t useCounter = 0;
    EccCacheStats counts;
    TraceSink *trace = nullptr;
    std::function<Tick()> clock;
};

} // namespace killi

#endif // KILLI_KILLI_ECC_CACHE_HH

/**
 * @file
 * A latency/bandwidth DRAM model: fixed access latency plus
 * per-channel occupancy, with channels interleaved at cache-line
 * granularity. This is the memory the write-through GPU L2 falls
 * back to on misses and error-induced misses.
 */

#ifndef KILLI_SIM_DRAM_HH
#define KILLI_SIM_DRAM_HH

#include <cstdint>
#include <vector>

#include "common/types.hh"

namespace killi
{

struct DramParams
{
    unsigned channels = 8;
    Cycle latency = 200;        //!< pin-to-pin access latency
    Cycle occupancyPerAccess = 4; //!< 64B burst at 16B/cycle
    unsigned lineBytes = 64;
};

class DramModel
{
  public:
    explicit DramModel(const DramParams &params);
    DramModel(const DramModel &) = delete;
    DramModel &operator=(const DramModel &) = delete;

    /**
     * Issue an access at time @p now; returns the completion time.
     * Channel queuing is modeled through a per-channel next-free
     * cursor (no reordering).
     */
    Tick access(Addr lineAddr, bool isWrite, Tick now);

    std::uint64_t reads() const { return nReads; }
    std::uint64_t writes() const { return nWrites; }

    /** Zero the read/write counts (the warm-up boundary). */
    void
    resetStats()
    {
        nReads = 0;
        nWrites = 0;
    }

  private:
    DramParams p;
    std::vector<Tick> channelFree;
    std::uint64_t nReads = 0;
    std::uint64_t nWrites = 0;
};

} // namespace killi

#endif // KILLI_SIM_DRAM_HH

/**
 * @file
 * Compute-unit model: a set of wavefronts each executing its
 * workload stream in order — compute for N cycles, then a coalesced
 * 64B memory op through the CU's L1 and the shared L2. Wavefronts
 * are independent (latency hiding comes from their concurrency, as
 * on a real CU); a blocked wavefront costs nothing to its siblings.
 */

#ifndef KILLI_GPU_CU_HH
#define KILLI_GPU_CU_HH

#include <vector>

#include "cache/l1cache.hh"
#include "cache/l2cache.hh"
#include "gpu/workload.hh"
#include "sim/event_queue.hh"

namespace killi
{

class ComputeUnit : private L2Client
{
  public:
    /**
     * @param wavefronts_remaining decremented once per wavefront
     *        completion (the GpuSystem counts down to end-of-kernel)
     */
    ComputeUnit(unsigned cu_id, EventQueue &eq, L1Cache &l1,
                L2Cache &l2, const Workload &workload,
                Cycle l1_latency, unsigned &wavefronts_remaining);

    /** Launch all wavefronts at the current tick. */
    void start();

    /** Instructions retired so far (compute + memory). */
    std::uint64_t instructions() const { return instrCount; }

  private:
    /** A wavefront's outstanding L2 load; a wavefront blocks on its
     *  load, so it has at most one. */
    struct PendingLoad
    {
        Addr addr = 0;
        Cycle computeCycles = 0;
        std::uint64_t nextIdx = 0;
    };

    /** Execute op @p idx of wavefront @p wf (event handler). */
    void step(unsigned wf, std::uint64_t idx);

    /** The L2 answered wavefront @p wf's load. */
    void l2Response(std::uint64_t wf, Tick when) override;

    unsigned cuId;
    EventQueue &eq;
    L1Cache &l1;
    L2Cache &l2;
    const Workload &workload;
    Cycle l1Latency;
    unsigned &wavefrontsRemaining;
    std::vector<PendingLoad> pending;
    std::uint64_t instrCount = 0;
};

} // namespace killi

#endif // KILLI_GPU_CU_HH

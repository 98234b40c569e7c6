#include "gpu/cu.hh"

namespace killi
{

ComputeUnit::ComputeUnit(unsigned cu_id, EventQueue &eq_, L1Cache &l1_,
                         L2Cache &l2_, const Workload &workload_,
                         Cycle l1_latency,
                         unsigned &wavefronts_remaining)
    : cuId(cu_id), eq(eq_), l1(l1_), l2(l2_), workload(workload_),
      l1Latency(l1_latency), wavefrontsRemaining(wavefronts_remaining),
      pending(workload_.wavefrontsPerCu())
{
}

void
ComputeUnit::start()
{
    for (unsigned wf = 0; wf < workload.wavefrontsPerCu(); ++wf)
        eq.scheduleIn<&ComputeUnit::step>(0, this, wf, 0);
}

void
ComputeUnit::step(unsigned wf, std::uint64_t idx)
{
    if (idx >= workload.opsFor(cuId, wf)) {
        --wavefrontsRemaining;
        return;
    }

    const MemOp op = workload.op(cuId, wf, idx);
    instrCount += 1 + op.computeCycles; // 1 IPC compute model

    if (op.isWrite) {
        // Write-through store: retire through a store buffer, no
        // stall (posted), data flows L1 (no-allocate) -> L2 -> DRAM.
        l1.writeThrough(op.addr);
        l2.write(op.addr);
        eq.scheduleIn<&ComputeUnit::step>(1 + op.computeCycles, this,
                                          wf, idx + 1);
        return;
    }

    if (l1.lookup(op.addr)) {
        eq.scheduleIn<&ComputeUnit::step>(l1Latency + op.computeCycles,
                                          this, wf, idx + 1);
        return;
    }

    pending[wf] = PendingLoad{op.addr, op.computeCycles, idx + 1};
    l2.read(op.addr, *this, wf);
}

void
ComputeUnit::l2Response(std::uint64_t wf, Tick)
{
    const PendingLoad &load = pending[wf];
    l1.fill(load.addr);
    // The response arrives at the current tick; resume after the
    // op's compute section.
    eq.scheduleIn<&ComputeUnit::step>(load.computeCycles + 1, this, wf,
                                      load.nextIdx);
}

} // namespace killi

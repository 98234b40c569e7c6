/**
 * @file
 * Top-level GPU system: wires compute units, per-CU L1s, the shared
 * banked write-through L2 (with its protection scheme), and DRAM,
 * runs a workload to completion, and reports the metrics the paper's
 * evaluation uses (kernel cycles, MPKI, power-model inputs).
 * Configuration defaults follow paper Table 3.
 *
 * Thread-confinement contract (audited for the parallel experiment
 * runner): a GpuSystem and everything it owns (event queue, caches,
 * DRAM, golden memory) is used by exactly one thread; nothing in
 * this module touches global mutable state. Objects passed in by
 * reference follow these rules when runs execute concurrently:
 *  - Workload: const and pure (op() is a function of coordinates),
 *    safe to share across threads;
 *  - ProtectionScheme: mutable (DFH/ECC-cache state), one instance
 *    per GpuSystem;
 *  - FaultMap: schemes hold it as const, so any number of
 *    concurrent runs may read one map (a sweep campaign activates
 *    one for all of its points). The only run-time writer is
 *    soft-error injection, through the separate @p fault_map
 *    argument; a run that passes it must own that map.
 */

#ifndef KILLI_GPU_GPU_SYSTEM_HH
#define KILLI_GPU_GPU_SYSTEM_HH

#include <memory>
#include <vector>

#include "cache/geometry.hh"
#include "common/json.hh"
#include "cache/l1cache.hh"
#include "cache/l2cache.hh"
#include "cache/protection.hh"
#include "gpu/cu.hh"
#include "gpu/workload.hh"
#include "sim/dram.hh"
#include "sim/event_queue.hh"
#include "sim/golden.hh"
#include "trace/timeseries.hh"

namespace killi
{

/** Table 3 GPU hardware configuration. */
struct GpuParams
{
    unsigned numCus = 8;
    CacheGeometry l1Geom{16 * 1024, 4, 64, 1};
    CacheGeometry l2Geom{2 * 1024 * 1024, 16, 64, 16};
    L2Params l2;
    DramParams dram;
    Cycle l1Latency = 1;
    /** Safety net for runaway simulations. */
    Tick maxCycles = 2'000'000'000;
    /**
     * Cycles between periodic stat snapshots into the run's
     * StatTimeseries (0 disables). Samples taken during warmup
     * passes are discarded; one final sample is always appended
     * after the measured pass so the series ends consistent with the
     * end-of-run aggregates.
     */
    Cycle statsInterval = 0;
};

/** End-of-run metrics. */
struct RunResult
{
    Cycle cycles = 0;
    std::uint64_t instructions = 0;
    std::uint64_t l2ReadHits = 0;
    std::uint64_t l2ReadMisses = 0;
    std::uint64_t l2ErrorMisses = 0;
    std::uint64_t l2WriteHits = 0;
    std::uint64_t l2WriteMisses = 0;
    std::uint64_t l2Evictions = 0;
    std::uint64_t l2ProtInvalidations = 0;
    std::uint64_t l2BypassFills = 0;
    std::uint64_t sdc = 0;
    std::uint64_t dramReads = 0;
    std::uint64_t dramWrites = 0;

    /** Misses (demand + error-induced) per kilo-instruction. */
    double
    mpki() const
    {
        const double misses =
            double(l2ReadMisses) + double(l2ErrorMisses);
        return instructions ? misses * 1000.0 / double(instructions)
                            : 0.0;
    }

    /** Total L2 data-array accesses (power-model input). */
    std::uint64_t
    l2Accesses() const
    {
        return l2ReadHits + l2ReadMisses + l2ErrorMisses +
            l2WriteHits + l2WriteMisses;
    }

    /** Structured form for machine-readable results files. */
    Json toJson() const;

    /** Inverse of toJson(); throws killi::Error on missing/mistyped
     *  members. */
    static RunResult fromJson(const Json &doc);
};

class GpuSystem
{
  public:
    /**
     * @param protection scheme guarding the L2 (not owned)
     * @param workload access streams to execute (not owned)
     * @param fault_map optional; required for soft-error injection
     *        (see L2Params::softErrorRatePerBitCycle)
     */
    GpuSystem(const GpuParams &params, ProtectionScheme &protection,
              const Workload &workload, FaultMap *fault_map = nullptr);

    /**
     * Run the kernel to completion and collect metrics.
     *
     * @param warmupPasses executions of the full workload whose
     *        cycles, events and counts (the L2's, DRAM's and the
     *        protection scheme's stats()) are excluded. Warming
     *        amortizes one-time effects — cold caches and, for
     *        Killi, the one-shot DFH training of every (set, way) —
     *        the way the paper's billion-instruction runs do. The
     *        measured region then reflects steady state.
     */
    RunResult run(unsigned warmupPasses = 0);

    /** The periodic stat snapshots (empty when statsInterval == 0 or
     *  before run()). */
    const StatTimeseries &timeseries() const { return series; }

    /** Mutable access, for installing a progress tap
     *  (StatTimeseries::setOnSample) before run(). */
    StatTimeseries &timeseries() { return series; }

    L2Cache &l2() { return *l2Cache; }

  private:
    /** Execute the workload once, to completion. */
    void runPass();

    /** Instructions retired in the measured region so far. */
    std::uint64_t measuredInstructions() const;

    GpuParams p;
    ProtectionScheme &protection;
    const Workload &workload;

    EventQueue eq;
    GoldenMemory golden;
    std::unique_ptr<DramModel> dram;
    std::unique_ptr<L2Cache> l2Cache;
    std::vector<std::unique_ptr<L1Cache>> l1s;
    std::vector<std::unique_ptr<ComputeUnit>> cus;
    unsigned wavefrontsRemaining = 0;
    StatTimeseries series;
    /** Warmup baseline subtracted from measured-region sources. */
    std::uint64_t instrBase = 0;
};

} // namespace killi

#endif // KILLI_GPU_GPU_SYSTEM_HH

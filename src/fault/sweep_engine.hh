/**
 * @file
 * Incremental voltage-sweep engine (ROADMAP item 3).
 *
 * A voltage sweep visits the same fault population at many operating
 * points. Because LV fault populations are monotone in V by
 * construction (DAC'17 superset invariant, fault_map.hh), each
 * point's active set differs from its neighbour's only by the cells
 * whose threshold crosses between pCell(V1) and pCell(V2) — so a
 * sweep does not need to resample (or even re-filter) every line per
 * point. This engine samples the population once, orders the points
 * from highest to lowest voltage, and steps the map down through
 * FaultMap's incremental delta path, turning a sweep from
 * O(points x lines) into O(lines + faults-delta).
 *
 * The incremental path is gated on FaultModel::monotoneVoltage():
 * droop-scheduled models may raise V mid-schedule, so they refuse
 * the delta path and fall back to a cold per-point activation in the
 * caller's original point order. Either way the per-point active
 * sets are bit-identical to cold sampling (asserted under
 * KILLI_CHECK_INVARIANTS, pinned in tests/fault_test.cc).
 */

#ifndef KILLI_FAULT_SWEEP_ENGINE_HH
#define KILLI_FAULT_SWEEP_ENGINE_HH

#include <cstddef>
#include <functional>
#include <vector>

#include "fault/fault_map.hh"
#include "fault/fault_model.hh"

namespace killi
{

/** Per-point visitor: the point's index into the caller's vector,
 *  its voltage, and the map activated at that voltage. Monotone
 *  sweeps visit points in descending-voltage order regardless of the
 *  caller's order — the index identifies the original slot. */
using VoltageSweepFn =
    std::function<void(std::size_t point, double vNorm, FaultMap &map)>;

/** What the engine actually did, for tests and callers that report
 *  sweep cost. */
struct VoltageSweepStats
{
    /** The map was stepped by threshold deltas (monotone models
     *  only; droop schedules refuse the incremental path). */
    bool incremental = false;
    /** Points visited (== the caller's vector size). */
    std::size_t points = 0;
    /** Points that paid a full O(lines) re-filter: every point for
     *  non-monotone models, only the first otherwise. */
    std::size_t coldActivations = 0;
};

/**
 * Sample @p model's population once, under the cover of @p points
 * (FaultModel::coverFor()), and visit every entry of @p points
 * exactly once with the map activated at that voltage.
 * Points may arrive in any order (and may repeat — a repeat is an
 * idempotent no-op re-activation).
 *
 * @param keepMap when non-null, receives the engine's map after the
 *        last point, so state the callback built against it (e.g.\ a
 *        protection scheme holding a FaultMap reference) safely
 *        outlives the sweep.
 */
VoltageSweepStats
runVoltageSweep(const FaultModel &model, std::size_t numLines,
                std::size_t lineBits,
                const std::vector<double> &points,
                const VoltageSweepFn &fn,
                std::unique_ptr<FaultMap> *keepMap = nullptr);

} // namespace killi

#endif // KILLI_FAULT_SWEEP_ENGINE_HH

/**
 * @file
 * Voltage-sweep engine.
 *
 * A voltage sweep visits one die at many operating points. The
 * engine samples the die once, under the cover of the sweep's points
 * (FaultModel::coverFor()), so it holds only the cells some point
 * activates, and re-activates one FaultMap at each point
 * (FaultMap::setVoltage(), a re-filter of that covered die).
 *
 * LV fault populations are monotone in V (DAC'17 superset
 * invariant, fault_map.hh), and a monotone map rejects a raise, so
 * monotone models visit the points from the highest voltage down.
 * Droop-scheduled models may raise V mid-schedule and keep the
 * caller's point order. Either way each point's active set is the
 * one a cold FaultModel::buildMapAt() gives (pinned in
 * tests/fault_test.cc, repeated points included).
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
    /** Points visited (== the caller's vector size). */
    std::size_t points = 0;
    /** Activations, one per visited point (== points; a repeat of
     *  the current voltage is a no-op). perfbench's vmin-sweep
     *  reports it as fault.cold_activations. */
    std::size_t coldActivations = 0;
};

/**
 * Sample @p model's population once, under the cover of @p points
 * (FaultModel::coverFor()), and visit every entry of @p points
 * exactly once with the map activated at that voltage.
 * Points may arrive in any order and may repeat: every visit of a
 * voltage sees the same active set.
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

#include "fault/sweep_engine.hh"

#include <algorithm>
#include <numeric>

namespace killi
{

VoltageSweepStats
runVoltageSweep(const FaultModel &model, std::size_t numLines,
                std::size_t lineBits,
                const std::vector<double> &points,
                const VoltageSweepFn &fn,
                std::unique_ptr<FaultMap> *keepMap)
{
    VoltageSweepStats st;
    st.points = points.size();
    if (points.empty())
        return st;
    // The die holds only the cells some point can activate.
    const double cover = model.coverFor(points);

    if (!model.monotoneVoltage()) {
        // Droop-scheduled (non-monotone) regimes may raise V between
        // points, so threshold deltas cannot apply: one population,
        // cold re-activation per point, caller's order preserved
        // (schedules are meaningful in sequence).
        std::unique_ptr<FaultMap> map = model.buildMapAt(
            numLines, lineBits, points.front(), cover);
        ++st.coldActivations;
        fn(0, points.front(), *map);
        for (std::size_t i = 1; i < points.size(); ++i) {
            map->setVoltage(points[i]);
            ++st.coldActivations;
            fn(i, points[i], *map);
        }
        if (keepMap)
            *keepMap = std::move(map);
        return st;
    }

    // Monotone: visit from the highest voltage down so every point's
    // active set derives from its neighbour's. stable_sort keeps
    // repeated voltages in caller order.
    std::vector<std::size_t> order(points.size());
    std::iota(order.begin(), order.end(), std::size_t{0});
    std::stable_sort(order.begin(), order.end(),
                     [&points](std::size_t a, std::size_t b) {
                         return points[a] > points[b];
                     });

    std::unique_ptr<FaultMap> map = model.buildMapAt(
        numLines, lineBits, points[order.front()], cover);
    ++st.coldActivations;
    st.incremental = map->enableIncrementalVoltage();
    for (const std::size_t idx : order) {
        map->setVoltage(points[idx]);
        fn(idx, points[idx], *map);
    }
    if (keepMap)
        *keepMap = std::move(map);
    return st;
}

} // namespace killi

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

    // A monotone map rejects a raise, so monotone models visit from
    // the highest voltage down (stable_sort keeps repeated voltages
    // in caller order). Droop schedules may raise V and mean
    // something in sequence: they keep the caller's order.
    std::vector<std::size_t> order(points.size());
    std::iota(order.begin(), order.end(), std::size_t{0});
    if (model.monotoneVoltage())
        std::stable_sort(order.begin(), order.end(),
                         [&points](std::size_t a, std::size_t b) {
                             return points[a] > points[b];
                         });

    // The die holds only the cells some point can activate.
    std::unique_ptr<FaultMap> map =
        model.buildMapAt(numLines, lineBits, points[order.front()],
                         model.coverFor(points));
    for (const std::size_t idx : order) {
        map->setVoltage(points[idx]);
        ++st.coldActivations;
        fn(idx, points[idx], *map);
    }
    if (keepMap)
        *keepMap = std::move(map);
    return st;
}

} // namespace killi

/**
 * @file
 * Figure 2: percentage of 64-byte lines with zero, one, and two-or-
 * more faults vs normalized supply voltage — both the analytical
 * binomial (the paper's estimate from cell data) and an actual
 * sampled fault map of the 2MB L2, which must agree.
 */

#include <algorithm>
#include <iostream>
#include <memory>
#include <vector>

#include "bench/report.hh"
#include "common/table.hh"
#include "fault/fault_map.hh"
#include "fault/fault_model.hh"
#include "fault/scenario_spec.hh"
#include "fault/sweep_engine.hh"

using namespace killi;

int
main(int argc, char **argv)
{
    Options opts("fig2_line_fault_distribution",
                 "Figure 2: % lines with 0 / 1 / 2+ faults vs "
                 "normalized VDD");
    const auto &seed = opts.add<std::uint64_t>(
        "seed", 42, "fault map sampling seed");
    const auto &lineBits =
        opts.add<std::uint64_t>("line.bits", 512,
                                "data bits per line for the binomial")
            .range(1, 4096);
    declareJsonOption(opts, "fig2_line_fault_distribution");
    opts.parse(argc, argv);

    // The figure tabulates ascending voltage; the sweep engine
    // visits the points high-to-low (one die, re-activated per
    // point) and the callback's point index slots each row back
    // into ascending order.
    std::vector<double> points;
    for (double v = 0.50; v <= 0.7001; v += 0.025)
        points.push_back(v);

    ScenarioSpec spec;
    spec.seed = seed;
    spec.voltage = points.back();
    const std::unique_ptr<FaultModel> fmodel =
        FaultModel::fromScenario(spec);
    const VoltageModel &model = fmodel->voltageModel();
    const auto bits = static_cast<std::size_t>(lineBits.value());

    std::cout << "=== Figure 2: % lines with 0 / 1 / 2+ faults vs "
                 "normalized VDD (64B line) ===\n\n";
    TextTable table;
    table.header({"V/VDD", "zero(model)", "one(model)", "2+(model)",
                  "zero(die)", "one(die)", "2+(die)"});
    std::vector<std::vector<std::string>> rows(points.size());
    runVoltageSweep(
        *fmodel, 32768, 720, points,
        [&](std::size_t idx, double v, FaultMap &map) {
            const auto hist = map.histogram(bits);
            const double n = double(map.numLines());
            rows[idx] = {TextTable::num(v, 3),
                         TextTable::num(
                             100 * model.pLineFaults(bits, 0, v), 3),
                         TextTable::num(
                             100 * model.pLineFaults(bits, 1, v), 3),
                         TextTable::num(
                             100 * model.pLineAtLeast(bits, 2, v), 3),
                         TextTable::num(100 * hist.zero / n, 3),
                         TextTable::num(100 * hist.one / n, 3),
                         TextTable::num(100 * hist.twoPlus / n, 3)};
        });
    for (const auto &row : rows)
        table.row(row);
    table.print(std::cout);
    std::cout << "\nThe \"die\" columns sample one fault map (seed "
              << seed.value() << ") of the 2MB L2;\nKilli's operating "
                 "point is 0.625xVDD where the majority of lines are "
                 "fault-free.\n";

    writeBenchReport(opts, {{"table", table.toJson()}});
    return 0;
}

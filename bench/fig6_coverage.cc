/**
 * @file
 * Figure 6: percentage of cache lines whose single-/multi-bit LV
 * fault population is classified correctly, without MBIST, across
 * normalized supply voltages — Killi (parity + SECDED), FLAIR
 * (DMR + SECDED during training), SECDED, DECTED, and MS-ECC
 * (paper §5.3 closed forms), plus a Monte-Carlo cross-check of the
 * Killi expression and the §5.6.2 masked-fault SDC window.
 */

#include <iostream>
#include <vector>

#include "analysis/coverage.hh"
#include "bench/report.hh"
#include "common/rng.hh"
#include "common/table.hh"
#include "fault/fault_model.hh"
#include "fault/scenario_spec.hh"
#include "fault/sweep_engine.hh"
#include "fault/voltage_model.hh"

using namespace killi;

int
main(int argc, char **argv)
{
    Options opts("fig6_coverage",
                 "Figure 6: % lines correctly classified without "
                 "MBIST");
    const auto &mcSamples =
        opts.add<std::uint64_t>("mc.samples", 20000,
                                "Monte-Carlo samples per voltage "
                                "point")
            .range(1, 100000000);
    const auto &seed =
        opts.add<std::uint64_t>("seed", 11, "Monte-Carlo RNG seed");
    const auto &dieLines =
        opts.add<std::uint64_t>("die.lines", 0,
                                "sample a die with this many lines "
                                "and append SECDED/MS-ECC coverage "
                                "columns measured on it (0 = closed "
                                "forms only)")
            .range(0, 1 << 20);
    declareJsonOption(opts, "fig6_coverage");
    opts.parse(argc, argv);

    const VoltageModel vm;
    const CoverageModel cm;
    Rng rng(seed);

    std::vector<double> points;
    for (double v = 0.70; v >= 0.5399; v -= 0.02)
        points.push_back(v);

    // Optional die-sampled columns: one fault map stepped down the
    // points by the sweep engine, measuring the same
    // <=2-of-523 (SECDED) and <=11-of-710 (MS-ECC) classification
    // predicates the closed-form columns integrate analytically.
    const auto nDie = static_cast<std::size_t>(dieLines.value());
    std::vector<double> dieSecded(points.size());
    std::vector<double> dieMsEcc(points.size());
    if (nDie > 0) {
        ScenarioSpec spec;
        spec.seed = seed;
        spec.voltage = points.front();
        const auto fmodel = FaultModel::fromScenario(spec);
        runVoltageSweep(
            *fmodel, nDie, 720, points,
            [&](std::size_t idx, double, FaultMap &map) {
                std::size_t okSecded = 0, okMsEcc = 0;
                for (std::size_t l = 0; l < nDie; ++l) {
                    okSecded += map.countFaults(l, 523) <= 2;
                    okMsEcc += map.countFaults(l, 710) <= 11;
                }
                dieSecded[idx] = 100.0 * double(okSecded) /
                                 double(nDie);
                dieMsEcc[idx] = 100.0 * double(okMsEcc) /
                                double(nDie);
            });
    }

    std::cout << "=== Figure 6: % lines correctly classified "
                 "(single- and multi-bit LV faults) ===\n\n";
    TextTable table;
    std::vector<std::string> header = {"V/VDD", "pCell", "SECDED",
                                       "DECTED", "MS-ECC", "FLAIR",
                                       "Killi", "Killi(MC)"};
    if (nDie > 0) {
        header.push_back("SECDED(die)");
        header.push_back("MS-ECC(die)");
    }
    table.header(header);
    for (std::size_t i = 0; i < points.size(); ++i) {
        const double v = points[i];
        const double p = vm.pCell(v);
        char pcell[32];
        std::snprintf(pcell, sizeof(pcell), "%.2e", p);
        std::vector<std::string> row = {
            TextTable::num(v, 2), pcell,
            TextTable::num(cm.secdedCoverage(p), 3),
            TextTable::num(cm.dectedCoverage(p), 3),
            TextTable::num(cm.msEccCoverage(p), 3),
            TextTable::num(cm.flairCoverage(p), 3),
            TextTable::num(cm.killiCoverage(p), 3),
            TextTable::num(
                cm.empiricalKilliCoverage(
                    p, static_cast<std::size_t>(mcSamples.value()),
                    rng),
                3)};
        if (nDie > 0) {
            row.push_back(TextTable::num(dieSecded[i], 3));
            row.push_back(TextTable::num(dieMsEcc[i], 3));
        }
        table.row(row);
    }
    table.print(std::cout);

    const double p625 = vm.pCell(0.625);
    std::cout << "\nShape check (paper): all techniques classify "
                 "correctly down to ~0.6xVDD; below that\nonly Killi "
                 "and FLAIR stay near 100% — Killi's coverage is "
                 "independent of the ECC\ncache size.\n\n"
              << "Section 5.6.2 masked-fault SDC window at "
                 "0.625xVDD: "
              << TextTable::num(cm.maskedSdcWindow(p625), 4)
              << "% of lines (paper: 0.003%; the paper does not "
                 "publish its masking assumptions,\nso order of "
                 "magnitude is the comparison point). Killi protects "
                 "the remaining "
              << TextTable::num(100.0 - cm.maskedSdcWindow(p625), 3)
              << "%.\n";

    Json sdc = Json::object();
    sdc.set("masked_sdc_window_pct",
            Json::number(cm.maskedSdcWindow(p625)));
    writeBenchReport(opts, {{"table", table.toJson()},
                            {"sdc_window", std::move(sdc)}});
    return 0;
}

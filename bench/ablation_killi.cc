/**
 * @file
 * Ablation study of Killi's design choices (the §4.3/§4.4 mechanisms
 * DESIGN.md calls out), on the two workloads the paper identifies as
 * most sensitive (XSBench, FFT) at 0.625xVDD, ECC cache 1:256:
 *
 *  - eviction-triggered DFH training on/off;
 *  - the b'01 > b'00 > b'10 allocation priority on/off;
 *  - training parity segment count (8 / 16 / 32);
 *  - ECC-cache associativity (2 / 4 / 8);
 *  - the §5.6.2 inverted-write masked-fault mitigation;
 *  - the §5.2 DECTED-strength trained-line upgrade.
 *
 * Every (workload, variant) point runs as an isolated job on the
 * experiment runner; `jobs=N` parallelizes the study with identical
 * tables, and results land in results/ablation_killi.json.
 */

#include <iostream>
#include <memory>

#include "bench/sweep.hh"
#include "common/log.hh"
#include "common/table.hh"
#include "fault/fault_map.hh"
#include "fault/fault_model.hh"
#include "fault/scenario_spec.hh"
#include "killi/killi.hh"
#include "runner/runner.hh"

using namespace killi;

namespace
{

struct Variant
{
    std::string name;
    KilliParams params;
};

std::vector<Variant>
variants()
{
    std::vector<Variant> list;
    KilliParams base;
    base.ratio = 256;

    list.push_back({"default (1:256)", base});
    {
        KilliParams p = base;
        p.evictionTraining = false;
        list.push_back({"no eviction training", p});
    }
    {
        KilliParams p = base;
        p.allocPriorityEnabled = false;
        list.push_back({"no alloc priority", p});
    }
    {
        KilliParams p = base;
        p.coordinatedReplacement = false;
        list.push_back({"no repl coordination", p});
    }
    for (const unsigned segments : {8u, 32u}) {
        KilliParams p = base;
        p.segments = segments;
        list.push_back(
            {"segments=" + std::to_string(segments), p});
    }
    for (const unsigned assoc : {2u, 8u}) {
        KilliParams p = base;
        p.eccCacheAssoc = assoc;
        list.push_back({"ecc assoc=" + std::to_string(assoc), p});
    }
    {
        KilliParams p = base;
        p.interleavedParity = false;
        list.push_back({"non-interleaved parity", p});
    }
    {
        KilliParams p = base;
        p.invertedWriteCheck = true;
        list.push_back({"inverted-write (5.6.2)", p});
    }
    {
        KilliParams p = base;
        p.dectedStable = true;
        list.push_back({"DECTED stable (5.2)", p});
    }
    return list;
}

/** One finished (workload, variant) point. */
struct VariantRun
{
    bool ok = false;
    RunResult result;
    std::uint64_t eccDrops = 0;
    std::size_t disabled = 0;
};

} // namespace

int
main(int argc, char **argv)
{
    Options opts("ablation_killi",
                 "Killi design-choice ablations on the two most "
                 "sensitive workloads");
    opts.add<double>("scale", 0.5, "workload length multiplier")
        .range(0.001, 1000.0);
    opts.add<unsigned>("warmup", 1u,
                       "warmup passes excluded from stats")
        .range(0u, 16u);
    opts.add<double>("voltage", 0.625, "normalized L2 supply")
        .range(0.5, 1.0);
    opts.add<std::uint64_t>("seed", std::uint64_t{42},
                            "fault-map die seed");
    opts.add<unsigned>("jobs", 1u,
                       "concurrent ablation points (0 = all hardware "
                       "threads)")
        .range(0u, 1024u);
    opts.add<unsigned>("retries", 1u,
                       "extra attempts before a failed point is "
                       "skipped")
        .range(0u, 10u);
    opts.add("json", "results/ablation_killi.json",
             "machine-readable results path (empty string disables)");
    opts.parse(argc, argv);

    const double scale = opts.get<double>("scale");
    const unsigned warmup = opts.get<unsigned>("warmup");
    const double voltage = opts.get<double>("voltage");
    const std::uint64_t seed = opts.get<std::uint64_t>("seed");

    std::cout << "=== Killi design-choice ablations @ " << voltage
              << "xVDD (scale=" << scale << ", warmup=" << warmup
              << ") ===\n\n";

    const std::vector<const char *> workloads{"xsbench", "fft"};
    const std::vector<Variant> list = variants();

    // Index-addressed result slots: [workload] -> baseline + one
    // VariantRun per variant; every job owns exactly one slot.
    std::vector<RunResult> baselines(workloads.size());
    std::vector<std::vector<VariantRun>> runs(
        workloads.size(), std::vector<VariantRun>(list.size()));

    // Every variant runs on the same die at the same voltage and
    // only reads its faults: sample and activate it once.
    ScenarioSpec spec;
    spec.seed = seed;
    spec.voltage = voltage;
    const std::unique_ptr<FaultModel> model =
        FaultModel::fromScenario(spec);
    const std::unique_ptr<const FaultMap> faults =
        model->buildMap(GpuParams{}.l2Geom.numLines(), 720);

    std::vector<Job> jobs;
    for (std::size_t wi = 0; wi < workloads.size(); ++wi) {
        const std::string wlName = workloads[wi];
        jobs.push_back(
            {wlName + "/baseline", [&, wi, wlName] {
                 const auto wl = makeWorkload(wlName, scale);
                 GpuParams gp;
                 FaultFreeProtection prot;
                 GpuSystem sys(gp, prot, *wl);
                 baselines[wi] = sys.run(warmup);
             }});
        for (std::size_t vi = 0; vi < list.size(); ++vi) {
            jobs.push_back(
                {wlName + "/" + list[vi].name, [&, wi, vi, wlName] {
                     GpuParams gp;
                     const auto wl = makeWorkload(wlName, scale);
                     KilliProtection prot(*faults, list[vi].params);
                     GpuSystem sys(gp, prot, *wl);
                     VariantRun &slot = runs[wi][vi];
                     slot.result = sys.run(warmup);
                     slot.eccDrops = prot.stats().eccDrops;
                     slot.disabled = prot.dfhHistogram()[3];
                     slot.ok = true;
                 }});
        }
    }

    RunnerOptions ropt;
    ropt.jobs = opts.get<unsigned>("jobs");
    ropt.retries = opts.get<unsigned>("retries");
    ExperimentRunner runner(ropt);
    const CampaignReport campaign = runner.run(jobs);
    campaign.warnOnFailures();

    Json resultArray = Json::array();
    for (std::size_t wi = 0; wi < workloads.size(); ++wi) {
        const RunResult &base = baselines[wi];
        std::cout << "--- " << workloads[wi] << " (baseline "
                  << base.cycles << " cycles) ---\n";
        TextTable table;
        table.header({"variant", "norm. time", "MPKI", "err misses",
                      "ECC drops", "SDC", "disabled"});
        for (std::size_t vi = 0; vi < list.size(); ++vi) {
            const VariantRun &run = runs[wi][vi];
            if (!run.ok) {
                table.row({list[vi].name, "n/a", "n/a", "n/a", "n/a",
                           "n/a", "n/a"});
                continue;
            }
            table.row(
                {list[vi].name,
                 TextTable::num(double(run.result.cycles) /
                                    double(base.cycles),
                                4),
                 TextTable::num(run.result.mpki(), 2),
                 std::to_string(run.result.l2ErrorMisses),
                 std::to_string(run.eccDrops),
                 std::to_string(run.result.sdc),
                 std::to_string(run.disabled)});

            Json entry = Json::object();
            entry.set("workload", Json::string(workloads[wi]));
            entry.set("variant", Json::string(list[vi].name));
            entry.set("baseline", base.toJson());
            entry.set("result", run.result.toJson());
            entry.set("ecc_drops", Json::number(run.eccDrops));
            entry.set("disabled",
                      Json::number(std::uint64_t(run.disabled)));
            resultArray.push(std::move(entry));
        }
        table.print(std::cout);
        std::cout << "\n";
    }

    std::cout << "Reading guide: eviction training accelerates DFH "
                 "convergence (fewer error misses\nand drops); the "
                 "allocation priority trades warmup misses for "
                 "faster training;\ninverted-write eliminates SDCs "
                 "at a small fill cost; DECTED-stable re-enables\n"
                 "two-fault lines at zero storage cost.\n";

    const std::string jsonPath = opts.get<std::string>("json");
    if (!jsonPath.empty()) {
        Json doc = Json::object();
        doc.set("bench", Json::string(opts.program()));
        doc.set("options", opts.toJson());
        doc.set("variants", std::move(resultArray));
        doc.set("campaign", campaign.toJson());
        writeJsonFile(jsonPath, doc);
        inform("wrote %s", jsonPath.c_str());
    }
    return 0;
}

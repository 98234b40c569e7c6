/**
 * @file
 * kperf: runs one benchmark workload and writes its result document.
 *
 *   kperf --workload <name> --seed <n> --seconds <s> --trace <0|1>
 *         --kserved <bin> --kfleetd <bin> --run-dir <dir> --out <file>
 *   kperf --catalog
 *
 * perfbench/run.py builds kperf and drives it; see perfbench/README.md.
 * The document holds the host/build stamp, the op counts, the failure
 * lines, and every metric with its unit and sample count. A traced run
 * lists every per-layer metric of the catalog, null with a reason when
 * the layer is not on this workload's path.
 */

#include <algorithm>
#include <cstdlib>
#include <cstring>
#include <iostream>
#include <map>
#include <string>
#include <thread>

#include "catalog.hh"
#include "common/log.hh"
#include "stamp.hh"
#include "workloads.hh"

using killi::Json;
using namespace perfbench;

namespace
{

/** Worker threads and client connections: nproc, at most 4. */
constexpr unsigned kMaxThreads = 4;

int
usage(const char *why)
{
    std::cerr << "kperf: " << why << "\n"
              << "usage: kperf --workload <name> --seed <n> "
                 "--seconds <s> --trace <0|1> --kserved <bin> "
                 "--kfleetd <bin> "
                 "--run-dir <dir> --out <file>\n";
    return 2;
}

/** The catalog as JSON: {"end_to_end"|"workload"|"per_layer":
 *  [{name, unit}, ...]}, for run.py's self-test. */
Json
catalogJson()
{
    Json doc = Json::object();
    for (const auto &[key, group] :
         {std::pair<const char *, const std::vector<CatalogEntry> *>{
              "end_to_end", &endToEndCatalog()},
          {"workload", &workloadCatalog()},
          {"per_layer", &layerCatalog()}}) {
        Json arr = Json::array();
        for (const CatalogEntry &e : *group) {
            Json o = Json::object();
            o.set("name", Json::string(e.name));
            o.set("unit", Json::string(e.unit));
            arr.push(std::move(o));
        }
        doc.set(key, std::move(arr));
    }
    return doc;
}

} // namespace

int
main(int argc, char **argv)
{
    if (argc == 2 && std::strcmp(argv[1], "--catalog") == 0) {
        std::cout << catalogJson().toString(1) << "\n";
        return 0;
    }
    std::map<std::string, std::string> args;
    for (int i = 1; i + 1 < argc; i += 2) {
        if (std::strncmp(argv[i], "--", 2) != 0)
            return usage("arguments come in --key value pairs");
        args[argv[i] + 2] = argv[i + 1];
    }
    for (const char *key : {"workload", "seed", "seconds", "trace",
                            "kserved", "kfleetd", "run-dir", "out"}) {
        if (!args.count(key))
            return usage((std::string("missing --") + key).c_str());
    }

    RunConfig cfg;
    const std::string workload = args["workload"];
    cfg.seed = std::strtoull(args["seed"].c_str(), nullptr, 10);
    cfg.seconds = std::atof(args["seconds"].c_str());
    cfg.trace = args["trace"] == "1";
    cfg.kservedBin = args["kserved"];
    cfg.kfleetdBin = args["kfleetd"];
    cfg.runDir = args["run-dir"];
    cfg.threads = std::clamp(std::thread::hardware_concurrency(), 1u,
                             kMaxThreads);
    if (cfg.seconds <= 0)
        return usage("--seconds must be positive");

    // Sweep progress lines would cost I/O inside the timed phase.
    killi::setLogLevel(killi::LogLevel::Quiet);

    WorkloadResult res;
    if (workload == "fig4-sweep")
        res = runFig4Sweep(cfg);
    else if (workload == "vmin-sweep")
        res = runVminSweep(cfg);
    else if (workload == "serve-mix")
        res = runServeMix(cfg);
    else if (workload == "fleet-campaign")
        res = runFleetCampaign(cfg);
    else
        return usage(("unknown workload '" + workload + "'").c_str());

    if (cfg.trace) {
        for (const CatalogEntry &e : layerCatalog()) {
            if (!res.metrics.contains(e.name))
                res.metrics.unavailable(e.name, "layer not on the " +
                                                    workload +
                                                    " workload's path");
        }
    }

    Json failures = Json::array();
    for (const std::string &f : res.failures)
        failures.push(Json::string(f));
    Json doc = Json::object();
    doc.set("workload", Json::string(workload));
    doc.set("seed", Json::number(cfg.seed));
    doc.set("seconds", Json::number(cfg.seconds));
    doc.set("trace", Json::boolean(cfg.trace));
    doc.set("threads", Json::number(std::uint64_t(cfg.threads)));
    doc.set("stamp", hostBuildStamp());
    doc.set("ops", Json::number(res.ops));
    doc.set("ops_failed", Json::number(res.opsFailed));
    doc.set("failures", std::move(failures));
    doc.set("metrics", res.metrics.toJson());
    killi::writeJsonFile(args["out"], doc);
    return 0;
}

/**
 * @file
 * Figure 4: GPU kernel execution time normalized to a fault-free
 * baseline at nominal VDD, for DECTED, FLAIR, MS-ECC and Killi at
 * ECC-cache ratios 1:256 .. 1:16, all operating the 2MB L2 at
 * 0.625xVDD and 1GHz, across the ten HPC workload proxies.
 *
 * Expected shape (paper): every scheme within a few percent of
 * baseline; Killi's penalty regulated by the ECC-cache size, with
 * the memory-bound, capacity-sensitive workloads (XSBench, FFT)
 * showing the largest 1:256 penalties.
 *
 * Run with --help for the sweep knobs; `jobs=N` runs N sweep points
 * concurrently with bit-identical tables, and the full per-point
 * results land in results/fig4_performance.json.
 */

#include <cmath>
#include <iostream>

#include "bench/sweep.hh"
#include "common/log.hh"
#include "common/table.hh"
#include "serve/client/client.hh"

using namespace killi;

namespace
{

/**
 * Print the Fig. 4 table (plus the SDC oracle) from a result
 * document: sweepToJson() of a local run, or the document a kserved
 * daemon returns for the same sweep, so both paths print alike.
 */
void
printFig4(const Json &doc)
{
    const Json &sweeps = doc.at("workloads");
    if (sweeps.size() == 0)
        fatal("fig4_performance: the sweep returned no workloads");

    TextTable table;
    std::vector<std::string> header{"workload"};
    const Json &first = sweeps.at(std::size_t(0)).at("schemes");
    for (std::size_t i = 0; i < first.size(); ++i)
        header.push_back(first.at(i).at("scheme").asString());
    table.header(header);

    const std::size_t numSchemes = first.size();
    std::vector<double> logSum(numSchemes, 0.0);
    std::vector<std::size_t> logCount(numSchemes, 0);
    for (std::size_t w = 0; w < sweeps.size(); ++w) {
        const Json &wl = sweeps.at(w);
        std::vector<std::string> row{wl.at("workload").asString()};
        const Json &schemes = wl.at("schemes");
        for (std::size_t i = 0; i < schemes.size(); ++i) {
            const Json &run = schemes.at(i);
            if (!run.at("ok").asBool()) {
                row.push_back("n/a");
                continue;
            }
            const double norm =
                run.at("normalized_time").asDouble();
            logSum[i] += std::log(norm);
            ++logCount[i];
            row.push_back(TextTable::num(norm, 4));
        }
        table.row(std::move(row));
    }
    std::vector<std::string> geo{"geomean"};
    for (std::size_t i = 0; i < numSchemes; ++i) {
        geo.push_back(logCount[i]
                          ? TextTable::num(
                                std::exp(logSum[i] / logCount[i]), 4)
                          : "n/a");
    }
    table.row(std::move(geo));
    table.print(std::cout);

    std::cout << "\nSDC oracle (must stay ~0; nonzero Killi entries "
                 "are the documented 5.6.2 window):\n";
    for (std::size_t w = 0; w < sweeps.size(); ++w) {
        const Json &wl = sweeps.at(w);
        const Json &schemes = wl.at("schemes");
        for (std::size_t i = 0; i < schemes.size(); ++i) {
            const Json &run = schemes.at(i);
            if (!run.at("ok").asBool())
                continue;
            const double sdc = run.at("result").at("sdc").asDouble();
            if (sdc != 0) {
                std::cout << "  " << wl.at("workload").asString()
                          << " / " << run.at("scheme").asString()
                          << ": " << std::uint64_t(sdc)
                          << " corrupted reads\n";
            }
        }
    }
}

/**
 * The `server=` path: ship the sweep to a kserved daemon instead of
 * running it in-process. The daemon replies with the same result
 * document this binary would have written (repeat runs come back
 * from its content-addressed cache instantly), so the table and the
 * results file are identical either way.
 */
int
runRemote(const SweepOptions &opt, const std::string &socketPath,
          unsigned port)
{
    serve::Client client;
    std::string err;
    const bool connected =
        !socketPath.empty()
            ? client.connectUnix(socketPath, &err)
            : client.connectTcp(std::uint16_t(port), &err);
    if (!connected)
        fatal("fig4_performance: %s", err.c_str());

    Json terminal;
    const bool ok = client.submit(
        serve::submitFrame(encodeSweepOptions(opt)), terminal,
        [](const Json &frame) {
            if (frame.at("type").asString() == "progress" &&
                frame.at("point_done").asBool()) {
                inform("  %llu/%llu %s",
                       (unsigned long long)frame.at("done")
                           .asDouble(),
                       (unsigned long long)frame.at("total")
                           .asDouble(),
                       frame.at("point").asString().c_str());
            }
        },
        &err);
    if (!ok)
        fatal("fig4_performance: %s", err.c_str());
    if (terminal.at("type").asString() == "error") {
        fatal("fig4_performance: server rejected request: %s",
              terminal.at("error").asString().c_str());
    }
    if (terminal.at("outcome").asString() != "done") {
        fatal("fig4_performance: remote sweep %s: %s",
              terminal.at("outcome").asString().c_str(),
              terminal.contains("error")
                  ? terminal.at("error").asString().c_str()
                  : "");
    }

    const Json &doc = terminal.at("result");
    printFig4(doc);
    if (!opt.jsonPath.empty()) {
        writeJsonFile(opt.jsonPath, doc);
        inform("wrote %s%s", opt.jsonPath.c_str(),
               terminal.at("cached").asBool() ? " (cache hit)" : "");
    }
    return 0;
}

} // namespace

int
main(int argc, char **argv)
{
    Options opts("fig4_performance",
                 "Figure 4: normalized GPU kernel execution time "
                 "across LV protection schemes");
    declareSweepOptions(opts, "fig4_performance");
    auto &server =
        opts.add("server", "",
                 "kserved unix socket path; when set the sweep runs "
                 "remotely on the daemon (repeat runs answered from "
                 "its result cache)");
    auto &serverPort =
        opts.add<unsigned>("server-port", 0u,
                           "kserved TCP port on 127.0.0.1 "
                           "(alternative to server=)")
            .range(0u, 65535u);
    opts.parse(argc, argv);

    const SweepOptions opt = sweepOptions(opts);
    if (!server.value().empty() || serverPort.value() != 0)
        return runRemote(opt, server.value(), serverPort);

    std::cout << "=== Figure 4: normalized GPU kernel execution time "
                 "(baseline = fault-free @ 1.0xVDD) ===\n"
              << "    L2 @ " << opt.voltage << "xVDD, 1GHz; scale="
              << opt.scale << ", warmup=" << opt.warmupPasses
              << ", jobs=" << opt.jobs << "\n\n";

    const SweepResult res = runEvaluationSweep(opt);
    printFig4(sweepToJson(opt, res));
    writeSweepJson(opts, opt, res);
    return 0;
}

/**
 * @file
 * kcheck: property-based differential verification of the Killi DFH
 * state machine with fault injection and replayable seeds.
 *
 * Campaign mode generates `runs` random scenarios from a master seed
 * and checks each one (in parallel, into index-addressed slots, so
 * results are bit-identical at any --jobs value). Failures are
 * shrunk to minimal counterexamples and written as replayable seed
 * files; `kcheck --replay file.json` re-runs one. Exit status is 1
 * iff any scenario failed.
 */

#include <filesystem>
#include <iostream>
#include <vector>

#include "check/checker.hh"
#include "check/scenario.hh"
#include "check/shrink.hh"
#include "common/json.hh"
#include "common/log.hh"
#include "common/options.hh"
#include "replay/session.hh"
#include "runner/thread_pool.hh"
#include "trace/trace.hh"

using namespace killi;
using namespace killi::check;

namespace
{

/**
 * Re-run a (typically shrunk) failing scenario with every trace
 * category enabled and return the event list as JSON. Attached to
 * the seed-file report so a counterexample ships with the full
 * dfh/ecc/error event history that produced it.
 */
Json
traceScenario(const Scenario &sc, std::size_t maxViolations)
{
    TraceSink sink;
    runScenario(sc, maxViolations, &sink);
    return sink.toJson();
}

int
replayFile(const std::string &path, const std::string &traceCats,
           const std::string &traceOut)
{
    const Scenario sc = Scenario::fromJson(readJsonFile(path));
    std::cout << "replaying " << path << ": " << sc.summary()
              << "\n";
    TraceSink sink;
    TraceSink *trace = nullptr;
    if (!traceCats.empty()) {
        std::string err;
        std::uint32_t mask = 0;
        if (!parseTraceCats(traceCats, mask, &err))
            fatal("kcheck: %s", err.c_str());
        sink.setMask(mask);
        trace = &sink;
    }
    const CheckResult res = runScenario(sc, 8, trace);
    for (const CheckViolation &v : res.violations)
        std::cout << "  op " << v.opIndex << " [" << v.scheme
                  << "] " << v.message << "\n";
    if (trace) {
        if (!traceOut.empty()) {
            writeJsonFile(traceOut, sink.chromeTraceJson());
            std::cout << "  trace: " << traceOut << " ("
                      << sink.retained() << " events)\n";
        } else {
            for (const TraceEvent &ev : sink.events())
                std::cout << "  " << ev.toJson().toString(0) << "\n";
        }
    }
    std::cout << (res.ok() ? "OK" : "FAILED") << " — coverage: "
              << res.coverage.toJson().toString(0) << "\n";
    return res.ok() ? 0 : 1;
}

/**
 * Record a seed-file scenario into a killi-recording-v1 file: every
 * RNG draw and trace record the check makes is captured so `krr
 * replay file=` can later verify the run is still bit-identical.
 */
int
recordScenarioFile(const std::string &seedPath,
                   const std::string &recordPath)
{
    const Scenario sc = Scenario::fromJson(readJsonFile(seedPath));
    std::cout << "recording " << seedPath << ": " << sc.summary()
              << "\n";
    const replay::CheckSession s = replay::recordScenario(sc);
    s.recording.writeFile(recordPath);
    std::cout << s.recording.summary() << "\nwrote " << recordPath
              << " (verify with krr replay file=" << recordPath
              << ")\n";
    return s.result.ok() ? 0 : 1;
}

} // namespace

int
main(int argc, char **argv)
{
    Options opts("kcheck",
                 "property-based differential checker for the Killi "
                 "DFH state machine (see TESTING.md)");
    const auto &seed = opts.add<std::uint64_t>(
        "seed", 1, "campaign master seed");
    const auto &runs =
        opts.add<std::uint64_t>("runs", 500,
                                "random scenarios to check")
            .range(1, 1000000);
    const auto &jobs = opts.add<std::uint64_t>(
        "jobs", 0, "worker threads (0 = hardware concurrency)");
    const auto &shrink = opts.add<bool>(
        "shrink", true, "minimize failing scenarios");
    const auto &maxFailures =
        opts.add<std::uint64_t>("max-failures", 4,
                                "shrink/report at most this many "
                                "failing scenarios")
            .range(1, 1000);
    const auto &outDir = opts.add(
        "out", "kcheck_failures",
        "directory for minimized counterexample seed files");
    const auto &replay = opts.add(
        "replay", "", "replay one scenario JSON file and exit");
    const auto &record = opts.add(
        "record", "",
        "with replay=: capture the scenario run into a "
        "killi-recording-v1 file at this path and exit");
    const auto &traceCats = opts.add(
        "trace", "",
        "replay mode: trace categories to record (e.g. dfh,ecc,check "
        "or all); printed as JSONL unless trace-out is set");
    const auto &traceOut = opts.add(
        "trace-out", "",
        "replay mode: write the trace as Chrome trace_event JSON "
        "(load in Perfetto) instead of printing it");
    const auto &jsonPath = opts.add(
        "json", "", "write a machine-readable campaign summary");
    opts.parse(argc, argv);

    if (!record.value().empty()) {
        if (replay.value().empty())
            fatal("kcheck: record= needs replay=seed.json to name "
                  "the scenario to capture");
        return recordScenarioFile(replay.value(), record.value());
    }
    if (!replay.value().empty())
        return replayFile(replay.value(), traceCats.value(),
                          traceOut.value());

    const std::size_t n = runs.value();
    std::vector<CheckResult> slots(n);
    {
        const unsigned threads = jobs.value()
            ? unsigned(jobs.value()) : ThreadPool::defaultThreads();
        ThreadPool pool(threads);
        for (std::size_t i = 0; i < n; ++i) {
            pool.submit([i, &slots, master = seed.value()] {
                slots[i] = runScenario(
                    Scenario::generate(caseSeed(master, i)));
            });
        }
        pool.wait();
    }

    CheckCoverage coverage;
    std::vector<std::size_t> failures;
    for (std::size_t i = 0; i < n; ++i) {
        coverage.add(slots[i].coverage);
        if (!slots[i].ok())
            failures.push_back(i);
    }

    std::cout << "kcheck: " << n << " scenarios, seed "
              << seed.value() << ": " << failures.size()
              << " failing\n";
    std::cout << "coverage: " << coverage.toJson().toString(0)
              << "\n";

    Json failureArr = Json::array();
    const std::size_t reportCount =
        std::min<std::size_t>(failures.size(), maxFailures.value());
    for (std::size_t f = 0; f < reportCount; ++f) {
        const std::size_t i = failures[f];
        const std::uint64_t cs = caseSeed(seed.value(), i);
        Scenario sc = Scenario::generate(cs);
        CheckResult res = slots[i];
        std::cout << "\nFAIL case " << i << " (" << sc.summary()
                  << ")\n";
        if (shrink.value()) {
            const ShrinkOutcome shrunk = shrinkScenario(sc);
            std::cout << "  shrunk to " << shrunk.scenario.trace.size()
                      << " ops / " << shrunk.scenario.faults.size()
                      << " faults in " << shrunk.evaluations
                      << " evaluations\n";
            sc = shrunk.scenario;
            res = shrunk.result;
        }
        for (const CheckViolation &v : res.violations)
            std::cout << "  op " << v.opIndex << " [" << v.scheme
                      << "] " << v.message << "\n";

        std::filesystem::create_directories(outDir.value());
        const std::string path = outDir.value() + "/case_" +
            std::to_string(cs) + ".json";
        writeJsonFile(path, sc.toJson());
        std::cout << "  seed file: " << path
                  << " (replay with kcheck replay=" << path << ")\n";

        Json entry = Json::object();
        entry.set("case", Json::number(std::uint64_t(i)));
        entry.set("case_seed", Json::number(cs));
        entry.set("seed_file", Json::string(path));
        entry.set("result", res.toJson());
        entry.set("trace", traceScenario(sc, 8));
        failureArr.push(std::move(entry));
    }
    if (failures.size() > reportCount)
        std::cout << "(" << failures.size() - reportCount
                  << " further failing cases not shrunk; raise "
                     "max-failures to see them)\n";

    if (!jsonPath.value().empty()) {
        Json doc = Json::object();
        doc.set("runs", Json::number(std::uint64_t(n)));
        doc.set("seed", Json::number(seed.value()));
        doc.set("failing",
                Json::number(std::uint64_t(failures.size())));
        doc.set("coverage", coverage.toJson());
        doc.set("failures", std::move(failureArr));
        writeJsonFile(jsonPath.value(), doc);
    }
    return failures.empty() ? 0 : 1;
}

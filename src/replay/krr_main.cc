/**
 * @file
 * krr: record, replay, and bisect deterministic run recordings.
 *
 *     krr record  out=run.krr.json [sweep knobs] [perturb-decode=]
 *     krr replay  file=run.krr.json [json=report.json]
 *     krr bisect  a=x.krr.json b=y.krr.json [context=] [json=report.json]
 *     krr info    file=run.krr.json
 *
 * `record` captures one evaluation sweep (typically a single
 * workloads=/schemes= point) into a killi-recording-v1 file.
 * `replay` re-derives the run from the file alone — sweep or kcheck
 * recordings alike — and verifies every nondeterministic input plus
 * the result digest; exit status 1 on divergence. `bisect`
 * binary-searches two recordings' stream digests to the first
 * divergent (tick, seq, stream, index). See TESTING.md, "Record,
 * replay, bisect".
 */

#include <iostream>
#include <string>

#include "bench/sweep.hh"
#include "common/json.hh"
#include "common/log.hh"
#include "common/options.hh"
#include "replay/bisect.hh"
#include "replay/recording.hh"
#include "replay/session.hh"

using namespace killi;
using namespace killi::replay;

namespace
{

int
cmdInfo(int argc, char **argv)
{
    Options opts("krr info", "describe a recording file");
    const auto &file = opts.add("file", "", "recording path");
    opts.parse(argc, argv);
    if (file.value().empty())
        fatal("krr info: file= is required");
    const Recording rec = Recording::loadFile(file.value());
    std::cout << rec.summary() << "\n";
    return 0;
}

int
cmdRecord(int argc, char **argv)
{
    Options opts("krr record",
                 "record one evaluation sweep into a replayable "
                 "killi-recording-v1 file");
    declareSweepOptions(opts, "krr");
    const auto &out = opts.add("out", "run.krr.json",
                               "recording output path");
    const auto &perturb = opts.add<std::uint64_t>(
        "perturb-decode", std::uint64_t{0},
        "arm the Nth sliced SECDED decode to flip one syndrome bit "
        "(bisector fault injection; 0 disables)");
    opts.parse(argc, argv);

    const SweepSession s =
        recordSweep(sweepOptions(opts), perturb.value());
    s.recording.writeFile(out.value());
    std::cout << s.recording.summary() << "\nwrote " << out.value()
              << "\n";
    return 0;
}

int
cmdReplay(int argc, char **argv)
{
    Options opts("krr replay",
                 "re-run a recording and verify bit-identity");
    const auto &file = opts.add("file", "", "recording path");
    const auto &jsonOut = opts.add(
        "json", "", "write the divergence report as JSON");
    opts.parse(argc, argv);
    if (file.value().empty())
        fatal("krr replay: file= is required");

    const Recording rec = Recording::loadFile(file.value());

    bool verified = false;
    Divergence div;
    if (rec.tool == "sweep") {
        const SweepSession s = replaySweep(rec);
        verified = s.verified;
        div = s.divergence;
    } else if (rec.tool == "kcheck") {
        const CheckSession s = replayScenario(rec);
        verified = s.verified;
        div = s.divergence;
    } else {
        fatal("krr replay: unknown tool '%s'", rec.tool.c_str());
    }

    std::cout << rec.summary() << "\n" << div.describe() << "\n";
    if (!jsonOut.value().empty())
        writeJsonFile(jsonOut.value(), div.toJson());
    return verified ? 0 : 1;
}

int
cmdBisect(int argc, char **argv)
{
    Options opts("krr bisect",
                 "binary-search two recordings to their first "
                 "divergent stream entry");
    const auto &fileA = opts.add("a", "", "first recording path");
    const auto &fileB = opts.add("b", "", "second recording path");
    const auto &context = opts.add<std::uint64_t>(
        "context", std::uint64_t{3},
        "trace records of context on each side of the divergence");
    const auto &jsonOut = opts.add(
        "json", "", "write the bisect report as JSON");
    opts.parse(argc, argv);
    if (fileA.value().empty() || fileB.value().empty())
        fatal("krr bisect: a= and b= are required");

    const Recording a = Recording::loadFile(fileA.value());
    const Recording b = Recording::loadFile(fileB.value());
    const BisectReport rep =
        bisectRecordings(a, b, std::size_t(context.value()));
    std::cout << rep.summary() << "\n";
    if (!jsonOut.value().empty())
        writeJsonFile(jsonOut.value(), rep.toJson());
    return rep.diverged ? 1 : 0;
}

} // namespace

int
main(int argc, char **argv)
{
    const std::string usage =
        "usage: krr <info|record|replay|bisect> [options]\n"
        "       krr <verb> --help for the verb's knobs";
    if (argc < 2) {
        std::cerr << usage << "\n";
        return 2;
    }
    const std::string verb = argv[1];
    // Each verb owns its Options; shift argv so "krr <verb>" acts as
    // the program name.
    if (verb == "info")
        return cmdInfo(argc - 1, argv + 1);
    if (verb == "record")
        return cmdRecord(argc - 1, argv + 1);
    if (verb == "replay")
        return cmdReplay(argc - 1, argv + 1);
    if (verb == "bisect")
        return cmdBisect(argc - 1, argv + 1);
    if (verb == "--help" || verb == "-h" || verb == "help") {
        std::cout << usage << "\n";
        return 0;
    }
    std::cerr << "krr: unknown verb '" << verb << "'\n"
              << usage << "\n";
    return 2;
}

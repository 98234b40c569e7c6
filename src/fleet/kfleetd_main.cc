/**
 * @file
 * kfleetd: the sharded-campaign front end. Speaks the exact kserve
 * frame protocol of kserved — same kcli, same metrics plane, same
 * drain semantics — but instead of running sweeps on a local
 * scheduler it shards each campaign across a fleet of kserved
 * workers (spawned locally with spawn-workers=, or attached with
 * workers=) through the fleet::Coordinator. See SERVING.md, "Fleet".
 */

#include <cstring>

#include <unistd.h>

#include "bench/sweep.hh"
#include "common/log.hh"
#include "common/options.hh"
#include "fleet/coordinator.hh"
#include "serve/server.hh"

using namespace killi;
using namespace killi::serve;

namespace
{

/** "port:9911" -> TCP endpoint; anything else is a socket path. */
fleet::WorkerEndpoint
parseEndpoint(const std::string &spec)
{
    fleet::WorkerEndpoint ep;
    if (spec.rfind("port:", 0) == 0) {
        const std::string digits = spec.substr(5);
        // Whole token digits only: strtoul alone would dial
        // "port:12abc" as port 12.
        const bool numeric =
            !digits.empty() &&
            digits.find_first_not_of("0123456789") == std::string::npos;
        const unsigned long port =
            numeric ? std::strtoul(digits.c_str(), nullptr, 10) : 0;
        if (port == 0 || port > 65535)
            fatal("kfleetd: bad worker endpoint '%s'", spec.c_str());
        ep.port = std::uint16_t(port);
        return ep;
    }
    ep.socketPath = spec;
    return ep;
}

/** Default worker binary: the kserved shipped with this kfleetd —
 *  next to the executable (installed layout), or in the sibling
 *  serve/ directory (CMake build tree). */
std::string
siblingKserved()
{
    char buf[4096];
    const ssize_t n =
        ::readlink("/proc/self/exe", buf, sizeof(buf) - 1);
    if (n <= 0)
        return "./kserved";
    buf[n] = '\0';
    const std::string self(buf);
    const std::size_t slash = self.find_last_of('/');
    if (slash == std::string::npos)
        return "./kserved";
    const std::string dir = self.substr(0, slash);
    for (const std::string &cand :
         {dir + "/kserved", dir + "/../serve/kserved"})
        if (::access(cand.c_str(), X_OK) == 0)
            return cand;
    return "./kserved";
}

} // namespace

int
main(int argc, char **argv)
{
    Options opts("kfleetd",
                 "sharded-campaign front end: speaks the kserved "
                 "protocol, but shards each submitted campaign "
                 "across a fleet of kserved workers, binding a "
                 "shard to a worker when one of its slots frees, "
                 "with hedged retries and peer-fetched results");
    ServerOptions defaults;
    defaults.socketPath = "kfleetd.sock";
    defaults.threads = 4;
    defaults.slowJobSeconds = 60;
    declareServerOptions(opts, defaults);

    auto &workers = opts.add(
        "workers", "",
        "comma-separated kserved endpoints to attach (socket path, "
        "or port:<n> for 127.0.0.1 TCP)");
    auto &spawnWorkers =
        opts.add<unsigned>("spawn-workers", 0u,
                           "local kserved workers to spawn and own "
                           "(drained at shutdown), in addition to "
                           "workers=")
            .range(0u, 64u);
    auto &workerBin = opts.add(
        "worker-bin", "",
        "kserved binary for spawn-workers= (default: the kserved "
        "next to this executable)");
    auto &spawnDir =
        opts.add("spawn-dir", ".",
                 "directory receiving spawned workers' w<i>.sock");
    auto &workerThreads =
        opts.add<unsigned>("worker-threads", 1u,
                           "threads= for each spawned worker")
            .range(1u, 1024u);
    auto &slotsPerWorker =
        opts.add<unsigned>("slots-per-worker", 2u,
                           "concurrent shard dispatches per worker "
                           "and campaign")
            .range(1u, 64u);
    auto &hedgeMs =
        opts.add<std::uint64_t>(
                "hedge-ms", std::uint64_t{30000},
                "re-dispatch a shard to a second worker when its "
                "primary has no terminal reply after this long "
                "(0 disables hedging)")
            .range(std::uint64_t{0}, std::uint64_t{86400000});
    auto &connectTimeoutMs =
        opts.add<std::uint64_t>("connect-timeout-ms",
                                std::uint64_t{10000},
                                "start-up and drain connect budget "
                                "per worker (a dispatch makes one "
                                "250 ms attempt)")
            .range(std::uint64_t{100}, std::uint64_t{600000});
    opts.parse(argc, argv);

    ServerOptions sopt = serverOptions(opts);
    // The front end never runs sweeps locally (the workers hold the
    // warm stores), so don't build one here.
    sopt.warmStoreMb = 0;
    Server server(sopt);

    fleet::FleetOptions fopt;
    for (const std::string &spec : splitNameList(workers.value()))
        fopt.workers.push_back(parseEndpoint(spec));
    fopt.spawnWorkers = spawnWorkers.value();
    fopt.workerBin = workerBin.value().empty() ? siblingKserved()
                                               : workerBin.value();
    fopt.spawnDir = spawnDir.value();
    fopt.workerThreads = workerThreads.value();
    fopt.slotsPerWorker = slotsPerWorker.value();
    fopt.hedgeSeconds = double(hedgeMs.value()) / 1000.0;
    fopt.connectTimeoutSeconds =
        double(connectTimeoutMs.value()) / 1000.0;
    fopt.registry = &server.metrics();

    fleet::Coordinator coord(fopt);
    std::string err;
    if (!coord.start(&err))
        fatal("kfleetd: %s", err.c_str());

    server.setFleetBackend(
        [&coord](std::uint64_t id, const SubmitRequest &req,
                 const CancelToken &cancel,
                 const FleetProgressFn &progress, Json *attribution) {
            return coord.runCampaign(id, req, cancel, progress,
                                     attribution);
        },
        [&coord](std::uint64_t id) { return coord.statusJson(id); },
        [&coord] { return coord.statsJson(); });

    serveUntilDrained(server, "kfleetd",
                      " (" + std::to_string(coord.workerCount()) +
                          " workers)");
    coord.shutdownWorkers();
    inform("kfleetd: drained, exiting");
    return 0;
}

/**
 * @file
 * kfleetd: the sharded-campaign front end. Speaks the exact kserve
 * frame protocol of kserved — same kcli, same metrics plane, same
 * drain semantics — but instead of running sweeps on a local
 * scheduler it shards each campaign across a fleet of kserved
 * workers (spawned locally with spawn-workers=, or attached with
 * workers=) through the fleet::Coordinator. See SERVING.md, "Fleet".
 */

#include <csignal>
#include <cstring>

#include <unistd.h>

#include "bench/sweep.hh"
#include "common/build_info.hh"
#include "common/log.hh"
#include "common/options.hh"
#include "fleet/coordinator.hh"
#include "serve/server.hh"

using namespace killi;
using namespace killi::serve;

namespace
{

Server *gServer = nullptr;

void
onSignal(int)
{
    if (gServer)
        gServer->requestDrain();
}

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
                 "across a fleet of kserved workers with work "
                 "stealing, hedged retries, and peer-fetched "
                 "results");
    auto &sockPath =
        opts.add("socket", "kfleetd.sock",
                 "unix socket path (empty switches to TCP)");
    auto &port = opts.add<unsigned>(
        "port", 0u,
        "TCP port on 127.0.0.1 when socket= is empty (0 = "
        "ephemeral, printed at startup)");
    port.range(0u, 65535u);
    auto &ioThreads =
        opts.add<unsigned>("io-threads", 1u,
                           "reactor (epoll I/O) threads")
            .range(1u, 64u);
    auto &threads =
        opts.add<unsigned>("threads", 4u,
                           "concurrent campaigns (front-end "
                           "scheduler workers; each campaign "
                           "occupies one while its shards run)")
            .range(1u, 1024u);
    auto &maxConns =
        opts.add<unsigned>("max-conns", 0u,
                           "concurrent-connection bound; accepts "
                           "beyond it get an \"overloaded\" error "
                           "frame and are closed (0 = unbounded)")
            .range(0u, 65536u);
    auto &maxQueue =
        opts.add<unsigned>("max-queue", 64u,
                           "ready-queue bound; submits beyond it "
                           "are rejected with queue_full")
            .range(1u, 65536u);
    auto &cacheEntries =
        opts.add<unsigned>("cache-entries", 1024u,
                           "front-end result-cache capacity (LRU "
                           "evicted); workers keep their own")
            .range(1u, 1u << 20);
    auto &metricsPort = opts.add<unsigned>(
        "metrics-port", 0u,
        "serve plain-HTTP GET /metrics (Prometheus text) on "
        "127.0.0.1 at this port when set (0 = ephemeral, printed "
        "at startup; omit to disable the listener entirely)");
    metricsPort.range(0u, 65535u);
    auto &slowJobMs =
        opts.add<std::uint64_t>(
                "slow-job-ms", std::uint64_t{60000},
                "log a structured warn() for campaigns slower than "
                "this (0 disables)")
            .range(std::uint64_t{0}, std::uint64_t{86400000});

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
                           "concurrent shard dispatches per worker")
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
                                "per-worker connect budget (retries "
                                "with backoff inside)")
            .range(std::uint64_t{100}, std::uint64_t{600000});
    auto &maxShardAttempts =
        opts.add<unsigned>("max-shard-attempts", 3u,
                           "dispatch attempts per shard before the "
                           "campaign fails")
            .range(1u, 100u);
    opts.parse(argc, argv);

    ServerOptions sopt;
    sopt.socketPath = sockPath.value();
    sopt.port = std::uint16_t(port.value());
    sopt.threads = threads.value();
    sopt.ioThreads = ioThreads;
    sopt.maxQueue = maxQueue;
    sopt.maxConns = maxConns.value();
    sopt.cacheEntries = cacheEntries;
    // The front end never runs sweeps locally (the workers hold the
    // warm stores), so don't build one here.
    sopt.warmStoreMb = 0;
    sopt.metricsHttp = opts.has("metrics-port");
    sopt.metricsPort = std::uint16_t(metricsPort.value());
    sopt.slowJobSeconds = double(slowJobMs.value()) / 1000.0;

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
    fopt.maxShardAttempts = maxShardAttempts.value();
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

    if (!server.start(&err))
        fatal("kfleetd: %s", err.c_str());

    gServer = &server;
    std::signal(SIGINT, onSignal);
    std::signal(SIGTERM, onSignal);

    if (!sopt.socketPath.empty()) {
        inform("kfleetd %s: listening on %s (%zu workers)",
               buildId(), sopt.socketPath.c_str(),
               coord.workerCount());
    } else {
        inform("kfleetd %s: listening on 127.0.0.1:%u (%zu workers)",
               buildId(), unsigned(server.boundPort()),
               coord.workerCount());
    }
    if (sopt.metricsHttp) {
        inform("kfleetd: metrics on http://127.0.0.1:%u/metrics",
               unsigned(server.metricsBoundPort()));
    }

    server.waitDone();
    coord.shutdownWorkers();
    inform("kfleetd: drained, exiting");
    return 0;
}

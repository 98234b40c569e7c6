/**
 * @file
 * kserved: long-lived experiment-serving daemon. Listens on a
 * Unix-domain socket (or a 127.0.0.1 TCP port), schedules sweep
 * requests on a cancellable priority scheduler, and answers repeated
 * requests from the content-addressed result cache. SIGINT/SIGTERM
 * trigger a graceful drain: in-flight sweeps finish, queued ones are
 * cancelled, every reply is flushed, the socket is unlinked, and the
 * process exits 0. See SERVING.md for the protocol.
 */

#include <csignal>

#include "common/build_info.hh"
#include "common/log.hh"
#include "common/options.hh"
#include "serve/server.hh"

using namespace killi;
using namespace killi::serve;

namespace
{

Server *gServer = nullptr;

void
onSignal(int)
{
    // requestDrain() is async-signal-safe: an atomic store plus a
    // write() on the wake pipe.
    if (gServer)
        gServer->requestDrain();
}

} // namespace

int
main(int argc, char **argv)
{
    Options opts("kserved",
                 "experiment-serving daemon: schedules sweep "
                 "requests, streams progress, caches results by "
                 "content address");
    auto &sockPath =
        opts.add("socket", "kserved.sock",
                 "unix socket path (empty switches to TCP)");
    auto &port = opts.add<unsigned>(
        "port", 0u,
        "TCP port on 127.0.0.1 when socket= is empty (0 = "
        "ephemeral, printed at startup)");
    port.range(0u, 65535u);
    auto &threads =
        opts.add<unsigned>("threads", 0u,
                           "scheduler worker threads (0 = all "
                           "hardware threads)")
            .range(0u, 1024u);
    auto &ioThreads =
        opts.add<unsigned>("io-threads", 1u,
                           "reactor (epoll I/O) threads; "
                           "connections shard across them at "
                           "accept time")
            .range(1u, 64u);
    auto &maxConns =
        opts.add<unsigned>("max-conns", 0u,
                           "concurrent-connection bound; accepts "
                           "beyond it get an \"overloaded\" error "
                           "frame and are closed (0 = unbounded)")
            .range(0u, 65536u);
    auto &debugJobDelayMs =
        opts.add<std::uint64_t>(
                "debug-job-delay-ms", std::uint64_t{0},
                "testing hook: sleep this long (cancellably) "
                "before running each admitted job — injects "
                "deterministic stragglers for fleet hedging tests")
            .range(std::uint64_t{0}, std::uint64_t{600000});
    auto &maxQueue =
        opts.add<unsigned>("max-queue", 64u,
                           "ready-queue bound; submits beyond it "
                           "are rejected with queue_full")
            .range(1u, 65536u);
    auto &cacheEntries =
        opts.add<unsigned>("cache-entries", 1024u,
                           "result-cache capacity (LRU evicted)")
            .range(1u, 1u << 20);
    auto &warmStoreMb =
        opts.add<unsigned>("warm-store-mb", 256u,
                           "warm-state store bound in MiB (sampled "
                           "fault populations shared across jobs of "
                           "the same die; 0 disables warm sharing)")
            .range(0u, 65536u);
    auto &metricsPort = opts.add<unsigned>(
        "metrics-port", 0u,
        "serve plain-HTTP GET /metrics (Prometheus text) on "
        "127.0.0.1 at this port when set (0 = ephemeral, printed "
        "at startup; omit to disable the listener entirely)");
    metricsPort.range(0u, 65535u);
    auto &slowJobMs =
        opts.add<std::uint64_t>(
                "slow-job-ms", std::uint64_t{60000},
                "log a structured warn() with the stage breakdown "
                "for jobs slower than this (0 disables)")
            .range(std::uint64_t{0}, std::uint64_t{86400000});
    opts.parse(argc, argv);

    ServerOptions sopt;
    sopt.socketPath = sockPath.value();
    sopt.port = std::uint16_t(port.value());
    sopt.threads = threads;
    sopt.ioThreads = ioThreads;
    sopt.maxQueue = maxQueue;
    sopt.maxConns = maxConns.value();
    sopt.debugJobDelaySeconds =
        double(debugJobDelayMs.value()) / 1000.0;
    sopt.cacheEntries = cacheEntries;
    sopt.warmStoreMb = warmStoreMb.value();
    sopt.metricsHttp = opts.has("metrics-port");
    sopt.metricsPort = std::uint16_t(metricsPort.value());
    sopt.slowJobSeconds = double(slowJobMs.value()) / 1000.0;

    Server server(sopt);
    std::string err;
    if (!server.start(&err))
        fatal("kserved: %s", err.c_str());

    gServer = &server;
    std::signal(SIGINT, onSignal);
    std::signal(SIGTERM, onSignal);

    if (!sopt.socketPath.empty()) {
        inform("kserved %s: listening on %s", buildId(),
               sopt.socketPath.c_str());
    } else {
        inform("kserved %s: listening on 127.0.0.1:%u", buildId(),
               unsigned(server.boundPort()));
    }
    if (sopt.metricsHttp) {
        inform("kserved: metrics on http://127.0.0.1:%u/metrics",
               unsigned(server.metricsBoundPort()));
    }

    server.waitDone();
    inform("kserved: drained, exiting");
    return 0;
}

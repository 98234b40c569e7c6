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

#include "common/log.hh"
#include "common/options.hh"
#include "serve/server.hh"

using namespace killi;
using namespace killi::serve;

int
main(int argc, char **argv)
{
    Options opts("kserved",
                 "experiment-serving daemon: schedules sweep "
                 "requests, streams progress, caches results by "
                 "content address");
    ServerOptions defaults;
    defaults.socketPath = "kserved.sock";
    defaults.slowJobSeconds = 60;
    declareServerOptions(opts, defaults);
    // Read by nothing; kept only because perfbench's serve-mix
    // starts kserved with io-threads=1.
    opts.add<unsigned>("io-threads", 1u,
                       "reactor threads (always 1)")
        .range(1u, 1u);
    auto &debugJobDelayMs =
        opts.add<std::uint64_t>(
                "debug-job-delay-ms", std::uint64_t{0},
                "testing hook: sleep this long (cancellably) "
                "before running each admitted job — injects "
                "deterministic stragglers for fleet hedging tests")
            .range(std::uint64_t{0}, std::uint64_t{600000});
    auto &warmStoreMb =
        opts.add<unsigned>("warm-store-mb", 256u,
                           "warm-state store bound in MiB (sampled "
                           "fault populations shared across jobs of "
                           "the same die; 0 disables warm sharing)")
            .range(0u, 65536u);
    opts.parse(argc, argv);

    ServerOptions sopt = serverOptions(opts);
    sopt.debugJobDelaySeconds =
        double(debugJobDelayMs.value()) / 1000.0;
    sopt.warmStoreMb = warmStoreMb.value();

    Server server(sopt);
    serveUntilDrained(server, "kserved");
    inform("kserved: drained, exiting");
    return 0;
}

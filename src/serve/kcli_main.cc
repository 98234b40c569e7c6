/**
 * @file
 * kcli: command-line client for kserved.
 *
 *     kcli submit [socket=…] [scale=…] [workloads=…] …  run a sweep
 *     kcli status id=N [json=1]                         query a job
 *     kcli cancel id=N                                  cancel a job
 *     kcli drain                                        graceful stop
 *     kcli stats [json=1]                               server stats
 *     kcli ping                                         liveness
 *
 * `status` and `stats` print aligned tables by default; json=1
 * switches to the raw reply JSON. `submit timings=1` prints the
 * per-stage span table (decode/queue/setup/run/serialize/reply)
 * from the result frame on stderr. Live operational metrics are the
 * ktop tool's job (or GET /metrics when kserved runs with
 * metrics-port=).
 *
 * Every command takes socket=PATH (Unix socket, default
 * kserved.sock) or port=N (TCP on 127.0.0.1). `submit` declares the
 * request half of the bench binaries' sweep knobs
 * (declareSweepRequestOptions()) and writes the result document
 * to json= (stdout when empty), so existing tooling
 * (tools/extract_sweep_results.py, plot scripts) consumes kcli
 * output unchanged.
 */

#include <cstdio>
#include <fstream>
#include <iostream>

#include "bench/sweep.hh"
#include "common/json.hh"
#include "common/log.hh"
#include "common/options.hh"
#include "common/table.hh"
#include "serve/client/client.hh"

using namespace killi;
using namespace killi::serve;

namespace
{

void
declareEndpoint(Options &opts)
{
    opts.add("socket", "kserved.sock",
             "kserved unix socket path (empty switches to TCP)");
    opts.add<unsigned>("port", 0u,
                       "kserved TCP port on 127.0.0.1 when socket= "
                       "is empty")
        .range(0u, 65535u);
    opts.add<unsigned>("connect-retries", 5u,
                       "connect attempts before giving up "
                       "(exponential backoff between attempts; "
                       "rides out a daemon still booting)")
        .range(1u, 100u);
    opts.add<unsigned>("connect-timeout-ms", 3000u,
                       "per-attempt connect deadline (0 = blocking "
                       "OS default)")
        .range(0u, 600000u);
    opts.add<unsigned>("connect-backoff-ms", 50u,
                       "delay before the second connect attempt; "
                       "doubles per retry, capped at 2000ms")
        .range(1u, 10000u);
}

/** Render one JSON scalar the way the table output wants it. */
std::string
scalarCell(const Json &value)
{
    switch (value.kind()) {
    case Json::Kind::Bool:
        return value.asBool() ? "true" : "false";
    case Json::Kind::String:
        return value.asString();
    case Json::Kind::Null:
        return "-";
    default:
        return value.toString(0);
    }
}

/**
 * The per-stage span table shipped on the result frame (stderr, so
 * json=/stdout result documents stay clean).
 */
void
printTimings(const Json &terminal)
{
    if (!terminal.contains("spans")) {
        warn("kcli: timings=1 but the result carries no spans "
             "(old server?)");
        return;
    }
    const Json &spans = terminal.at("spans");
    const double total = spans.at("total_s").asDouble();
    TextTable table;
    table.header({"stage", "ms", "share"});
    for (const char *stage :
         {"decode", "queue", "setup", "run", "serialize", "reply"}) {
        const double s =
            spans.at(std::string(stage) + "_s").asDouble();
        table.row({stage, TextTable::num(s * 1e3, 3),
                   total > 0
                       ? TextTable::num(100.0 * s / total, 1) + "%"
                       : "-"});
    }
    table.row({"total", TextTable::num(total * 1e3, 3), "100.0%"});
    table.print(std::cerr);
}

/**
 * The per-shard worker-attribution table a fleet coordinator ships
 * on the terminal frame's "fleet" sibling (stderr, like timings=,
 * so json=/stdout result documents stay clean).
 */
void
printFleetAttribution(const Json &fleet)
{
    if (!fleet.contains("shards") ||
        fleet.at("shards").kind() != Json::Kind::Array)
        return;
    const Json &shards = fleet.at("shards");
    TextTable table;
    table.header({"shard", "worker", "origin", "hedged"});
    for (std::size_t i = 0; i < shards.size(); ++i) {
        const Json &s = shards.at(i);
        table.row({s.at("workload").asString(),
                   s.at("worker").asString(),
                   s.at("origin").asString(),
                   s.contains("hedged") && s.at("hedged").asBool()
                       ? "yes"
                       : "no"});
    }
    table.print(std::cerr);
}

void
connectTo(const Options &opts, Client &client)
{
    const std::string sock = opts.get<std::string>("socket");
    ConnectOptions copt;
    copt.attempts = opts.get<unsigned>("connect-retries");
    copt.timeoutMs = int(opts.get<unsigned>("connect-timeout-ms"));
    copt.backoffMs = int(opts.get<unsigned>("connect-backoff-ms"));
    std::string err;
    bool ok;
    if (!sock.empty()) {
        ok = client.connectUnix(sock, copt, &err);
    } else {
        const unsigned port = opts.get<unsigned>("port");
        if (port == 0)
            fatal("kcli: socket= is empty and no port= given");
        ok = client.connectTcp(std::uint16_t(port), copt, &err);
    }
    if (!ok)
        fatal("kcli: %s", err.c_str());
}

int
runSubmit(Options &opts)
{
    Client client;
    connectTo(opts, client);

    const std::string recordPath = opts.get<std::string>("record");
    const std::string replayPath = opts.get<std::string>("replay");
    if (!recordPath.empty() && !replayPath.empty())
        fatal("kcli: record= and replay= are mutually exclusive");

    const int priority = int(opts.get<std::int64_t>("priority"));
    const bool stream = opts.get<bool>("stream");
    Json req;
    if (!replayPath.empty()) {
        // Like scenario files, the recording is resolved client-side
        // and shipped inline; a replay job takes every option from
        // its meta, so the sweep knobs are not sent.
        req = Json::object();
        req.set("type", Json::string("submit"));
        req.set("replay", readJsonFile(replayPath));
        req.set("priority", Json::number(std::int64_t(priority)));
        req.set("stream", Json::boolean(stream));
    } else {
        // The sweep knobs resolve client-side (the daemon never
        // reads client file paths), so the scenario ships as a
        // canonical object with any voltage=/seed= override folded
        // in.
        req = submitFrame(encodeSweepOptions(sweepRequestOptions(opts)),
                          priority, stream);
        if (!recordPath.empty())
            req.set("record", Json::boolean(true));
    }

    Json terminal;
    std::string err;
    const bool ok = client.submit(
        req, terminal,
        [](const Json &frame) {
            const std::string &type = frame.at("type").asString();
            if (type == "submitted") {
                inform("submitted id=%llu cached=%s key=%s",
                       (unsigned long long)frame.at("id").asDouble(),
                       frame.at("cached").asBool() ? "yes" : "no",
                       frame.at("key").asString().c_str());
            } else if (type == "progress") {
                if (frame.at("point_done").asBool()) {
                    inform("progress %llu/%llu: %s done",
                           (unsigned long long)frame.at("done")
                               .asDouble(),
                           (unsigned long long)frame.at("total")
                               .asDouble(),
                           frame.at("point").asString().c_str());
                } else {
                    inform("running %s: tick=%llu insts=%llu",
                           frame.at("point").asString().c_str(),
                           (unsigned long long)frame.at("tick")
                               .asDouble(),
                           (unsigned long long)frame
                               .at("instructions")
                               .asDouble());
                }
            }
        },
        &err);
    if (!ok)
        fatal("kcli: %s", err.c_str());

    if (terminal.at("type").asString() == "error") {
        warn("kcli: request rejected: %s",
             terminal.at("error").asString().c_str());
        return 1;
    }
    const std::string &outcome = terminal.at("outcome").asString();
    if (outcome != "done") {
        warn("kcli: job %s: %s", outcome.c_str(),
             terminal.contains("error")
                 ? terminal.at("error").asString().c_str()
                 : "");
        return 1;
    }
    const Json &result = terminal.at("result");
    if (opts.get<bool>("timings"))
        printTimings(terminal);
    if (terminal.contains("fleet"))
        printFleetAttribution(terminal.at("fleet"));

    int exitCode = 0;
    Json output = result;
    if (!recordPath.empty()) {
        if (!result.contains("recording"))
            fatal("kcli: record= was requested but the result "
                  "carries no recording (old server?)");
        // The recording is written compact on its own (it is large);
        // the sweep document keeps flowing to json=/stdout without
        // it.
        std::ofstream out(recordPath, std::ios::binary);
        if (!out)
            fatal("kcli: cannot write %s", recordPath.c_str());
        out << result.at("recording").toString(0) << "\n";
        inform("wrote recording %s (replay with kcli submit "
               "replay=%s)",
               recordPath.c_str(), recordPath.c_str());
        Json trimmed = Json::object();
        for (const auto &[key, value] : result.members())
            if (key != "recording")
                trimmed.set(key, value);
        output = std::move(trimmed);
    }
    if (!replayPath.empty()) {
        const Json &rj = result.at("replay");
        if (rj.at("verified").asBool()) {
            inform("replay verified: bit-identical to %s",
                   replayPath.c_str());
        } else {
            warn("kcli: replay DIVERGED from %s: %s",
                 replayPath.c_str(),
                 rj.at("divergence").toString(0).c_str());
            exitCode = 1;
        }
    }

    const std::string jsonPath = opts.get<std::string>("json");
    if (!jsonPath.empty()) {
        writeJsonFile(jsonPath, output);
        inform("wrote %s%s", jsonPath.c_str(),
               terminal.at("cached").asBool() ? " (cache hit)" : "");
    } else {
        output.dump(std::cout, 2);
        std::cout << "\n";
    }
    return exitCode;
}

int
runIdCommand(Options &opts, const std::string &cmd)
{
    Client client;
    connectTo(opts, client);
    Json req = Json::object();
    req.set("type", Json::string(cmd));
    req.set("id", Json::number(opts.get<std::uint64_t>("id")));
    std::string err;
    Json reply;
    if (!client.send(req, &err) || !client.recv(reply, &err))
        fatal("kcli: %s", err.c_str());
    if (reply.at("type").asString() == "error") {
        warn("kcli: %s", reply.at("error").asString().c_str());
        return 1;
    }
    if (cmd == "status") {
        const bool known = reply.at("known").asBool();
        if (opts.get<bool>("json")) {
            reply.dump(std::cout, 2);
            std::cout << "\n";
            return known ? 0 : 1;
        }
        TextTable table;
        table.header({"field", "value"});
        table.row({"id", scalarCell(reply.at("id"))});
        table.row({"known", known ? "yes" : "no"});
        table.row(
            {"state",
             known ? reply.at("state").asString() : "unknown"});
        // A fleet coordinator annotates status with the per-shard
        // dispatch state (worker, origin, hedges) while the
        // campaign is in flight.
        if (reply.contains("fleet")) {
            for (const auto &[key, value] :
                 reply.at("fleet").members())
                if (value.kind() != Json::Kind::Array &&
                    value.kind() != Json::Kind::Object)
                    table.row({"fleet." + key, scalarCell(value)});
        }
        table.print(std::cout);
        return known ? 0 : 1;
    } else {
        inform("job %llu: cancel %s",
               (unsigned long long)reply.at("id").asDouble(),
               reply.at("cancelled").asBool() ? "requested"
                                              : "not possible");
        if (!reply.at("cancelled").asBool())
            return 1;
    }
    return 0;
}

int
runSimple(Options &opts, const std::string &cmd)
{
    Client client;
    connectTo(opts, client);
    Json req = Json::object();
    req.set("type", Json::string(cmd));
    std::string err;
    Json reply;
    if (!client.send(req, &err) || !client.recv(reply, &err))
        fatal("kcli: %s", err.c_str());
    const std::string &type = reply.at("type").asString();
    if (type == "error") {
        warn("kcli: %s", reply.at("error").asString().c_str());
        return 1;
    }
    if (cmd == "stats") {
        const Json &stats = reply.at("stats");
        if (opts.get<bool>("json")) {
            stats.dump(std::cout, 2);
            std::cout << "\n";
            return 0;
        }
        // One section/field/value table per nested object; scalar
        // top-level members (build, draining) become a "server"
        // section up front.
        TextTable table;
        table.header({"section", "field", "value"});
        for (const auto &[key, value] : stats.members())
            if (value.kind() != Json::Kind::Object)
                table.row({"server", key, scalarCell(value)});
        for (const auto &[key, value] : stats.members()) {
            if (value.kind() != Json::Kind::Object)
                continue;
            for (const auto &[field, scalar] : value.members())
                table.row({key, field, scalarCell(scalar)});
        }
        table.print(std::cout);
    } else if (cmd == "drain") {
        inform("kserved: %s", type.c_str());
    } else {
        inform("pong (build %s)",
               reply.at("build").asString().c_str());
    }
    return 0;
}

void
usage()
{
    std::fprintf(
        stderr,
        "usage: kcli <submit|status|cancel|drain|stats|ping> "
        "[key=value ...]\n"
        "       kcli <command> --help   for per-command knobs\n");
}

} // namespace

int
main(int argc, char **argv)
{
    if (argc < 2) {
        usage();
        return 2;
    }
    const std::string cmd = argv[1];
    if (cmd == "--help" || cmd == "-h" || cmd == "help") {
        usage();
        return 0;
    }

    Options opts("kcli " + cmd,
                 "kserved client command \"" + cmd + "\"");
    declareEndpoint(opts);
    if (cmd == "submit") {
        declareSweepRequestOptions(opts);
        opts.add<std::int64_t>("priority", std::int64_t{0},
                               "scheduling priority (higher runs "
                               "first)")
            .range(-1000, 1000);
        opts.add<bool>("stream", true,
                       "stream progress frames while the job runs");
        opts.add("json", "",
                 "result document path (empty prints to stdout)");
        opts.add<bool>("timings", false,
                       "print the per-stage span table (decode/"
                       "queue/setup/run/serialize/reply) from the "
                       "result frame on stderr");
        opts.add("record", "",
                 "capture the job into a killi-recording-v1 file at "
                 "this local path (bypasses the result cache)");
        opts.add("replay", "",
                 "verify a previous record= file: re-run it on the "
                 "server and exit 1 unless bit-identical (other "
                 "sweep knobs are taken from the recording)");
    } else if (cmd == "status" || cmd == "cancel") {
        opts.add<std::uint64_t>("id", std::uint64_t{0},
                                "job id from the submitted frame");
        if (cmd == "status")
            opts.add<bool>("json", false,
                           "print the raw status_reply JSON instead "
                           "of the table");
    } else if (cmd == "stats") {
        opts.add<bool>("json", false,
                       "print the raw stats_reply JSON instead of "
                       "the table");
    } else if (cmd != "drain" && cmd != "stats" && cmd != "ping") {
        usage();
        return 2;
    }
    // Shift past the subcommand so key=value parsing starts after it.
    opts.parse(argc - 1, argv + 1);

    if (cmd == "submit")
        return runSubmit(opts);
    if (cmd == "status" || cmd == "cancel")
        return runIdCommand(opts, cmd);
    return runSimple(opts, cmd);
}

/**
 * @file
 * Tests for the fleet fabric (src/fleet): a Coordinator driving real
 * in-process kserved workers over loopback TCP. A shard is bound to
 * a worker only when a slot frees, to the least-busy worker with the
 * lowest index on a tie, so placement on an idle fleet is
 * deterministic (shard i on worker i mod N) and the tests can pin
 * which worker computes which shard and force each fabric mechanism
 * in isolation: bit-identical shard merging against a direct
 * in-process sweep, peer fetch of a shard recurring on a different
 * worker, forgetting an unreachable peer after one miss, pending
 * shards moving past a busy worker, hedged re-dispatch away from an
 * injected straggler, retry of a shard whose worker died,
 * worker-side cache hits on repeat campaigns, concurrent clients
 * through a kfleetd-style front end, and the dispatch-accounting
 * invariant (dispatched == completed + cancelled) after each.
 */

#include <atomic>
#include <memory>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "bench/sweep.hh"
#include "common/json.hh"
#include "common/log.hh"
#include "fleet/coordinator.hh"
#include "metrics/metrics.hh"
#include "runner/thread_pool.hh"
#include "serve/client/client.hh"
#include "serve/server.hh"
#include "serve/submit.hh"

using namespace killi;
using namespace killi::fleet;

namespace
{

/**
 * N in-process kserved workers on ephemeral loopback TCP ports plus
 * a Coordinator attached to them. @p delays injects a per-worker
 * debugJobDelaySeconds straggler (workers beyond the vector run
 * undelayed).
 */
struct TestFleet
{
    metrics::MetricsRegistry registry;
    std::vector<std::unique_ptr<serve::Server>> workers;
    std::unique_ptr<Coordinator> coord;

    explicit TestFleet(std::size_t n, FleetOptions fopt = {},
                       const std::vector<double> &delays = {})
    {
        for (std::size_t i = 0; i < n; ++i) {
            serve::ServerOptions sopt;
            sopt.port = 0; // ephemeral loopback TCP
            sopt.threads = 2;
            sopt.maxQueue = 16;
            if (i < delays.size())
                sopt.debugJobDelaySeconds = delays[i];
            workers.push_back(
                std::make_unique<serve::Server>(sopt));
            std::string err;
            if (!workers.back()->start(&err))
                ADD_FAILURE() << "worker " << i << ": " << err;
            WorkerEndpoint ep;
            ep.port = workers.back()->boundPort();
            fopt.workers.push_back(ep);
        }
        fopt.registry = &registry;
        coord = std::make_unique<Coordinator>(std::move(fopt));
        std::string err;
        if (!coord->start(&err))
            ADD_FAILURE() << "fleet start: " << err;
    }

    ~TestFleet()
    {
        coord.reset();
        for (auto &worker : workers)
            worker->stop();
    }
};

/** A validated campaign over @p workloads (comma list), fast scale,
 *  pinned seed — the same resolution path the daemon uses. */
serve::SubmitRequest
campaignFor(const std::string &workloads, double scale = 0.003,
            const std::string &schemes = "DECTED",
            std::uint64_t seed = 42)
{
    Json options = Json::object();
    options.set("scale", Json::number(scale));
    options.set("warmup", Json::number(std::uint64_t{0}));
    options.set("seed", Json::number(seed));
    options.set("workloads", Json::string(workloads));
    options.set("schemes", Json::string(schemes));
    Json req = Json::object();
    req.set("type", Json::string("submit"));
    req.set("options", std::move(options));
    req.set("stream", Json::boolean(false));
    serve::SubmitRequest out;
    std::string err;
    if (!serve::parseSubmit(req, out, err))
        ADD_FAILURE() << "parseSubmit: " << err;
    return out;
}

/** The attribution entry for @p workload. */
Json
shardFor(const Json &attribution, const std::string &workload)
{
    const Json &shards = attribution.at("shards");
    for (std::size_t i = 0; i < shards.size(); ++i)
        if (shards.at(i).at("workload").asString() == workload)
            return shards.at(i);
    ADD_FAILURE() << "no attribution entry for " << workload;
    return Json();
}

/** Assert the lifetime dispatch ledger balances and matches. */
void
expectLedger(Coordinator &coord, std::int64_t dispatched,
             std::int64_t completed, std::int64_t cancelled)
{
    const Json stats = coord.statsJson();
    EXPECT_EQ(stats.at("shards_dispatched").asInt(), dispatched);
    EXPECT_EQ(stats.at("shards_completed").asInt(), completed);
    EXPECT_EQ(stats.at("shards_cancelled").asInt(), cancelled);
    EXPECT_EQ(dispatched, completed + cancelled);
}

} // namespace

// ---------------------------------------------------------------
// Fleet fabric
// ---------------------------------------------------------------

TEST(Fleet, TwoWorkerCampaignIsBitIdenticalToDirectSweep)
{
    TestFleet fleet(2);
    const serve::SubmitRequest req =
        campaignFor("xsbench,spmv", 0.02, "DECTED,Killi 1:256");
    CancelToken cancel;
    std::atomic<unsigned> pointsDone{0};
    Json attribution;
    const Json doc = fleet.coord->runCampaign(
        1, req, cancel,
        [&](const SweepProgress &p) {
            if (p.pointDone)
                pointsDone.fetch_add(1);
        },
        &attribution);

    // The merged document against a direct in-process run of the
    // full campaign: the per-workload result arrays and the sweep
    // header must be byte-identical (the PR's acceptance bar).
    const SweepResult res = runEvaluationSweep(req.sopt);
    const Json direct = sweepToJson(req.sopt, res);
    EXPECT_EQ(doc.at("workloads").toString(0),
              direct.at("workloads").toString(0));
    EXPECT_EQ(doc.at("sweep").toString(0),
              direct.at("sweep").toString(0));
    EXPECT_EQ(doc.at("bench").asString(), "kserved");
    EXPECT_EQ(doc.at("options").toString(0),
              serve::resolvedOptionsJson(req.sopt).toString(0));

    // One synthesized point-done event per shard.
    EXPECT_EQ(pointsDone.load(), 2u);

    // Placement on an idle fleet: one shard per worker, both
    // computed, nothing hedged.
    EXPECT_EQ(attribution.at("workers").asInt(), 2);
    EXPECT_EQ(shardFor(attribution, "xsbench").at("worker")
                  .asString(), "w0");
    EXPECT_EQ(shardFor(attribution, "spmv").at("worker").asString(),
              "w1");
    for (const char *wl : {"xsbench", "spmv"}) {
        const Json shard = shardFor(attribution, wl);
        EXPECT_EQ(shard.at("origin").asString(), "computed");
        EXPECT_FALSE(shard.at("hedged").asBool());
    }
    expectLedger(*fleet.coord, 2, 2, 0);

    // The kfleet_* families are live in the registry.
    const std::string prom = fleet.registry.prometheusText();
    EXPECT_NE(prom.find("kfleet_workers"), std::string::npos);
    EXPECT_NE(prom.find("kfleet_shard_seconds"), std::string::npos);
}

TEST(Fleet, RecurringShardIsServedByPeerFetch)
{
    TestFleet fleet(2);
    CancelToken cancel;

    // Campaign 1 binds xsbench -> w0, spmv -> w1.
    Json attr1;
    const Json doc1 = fleet.coord->runCampaign(
        1, campaignFor("xsbench,spmv"), cancel,
        serve::FleetProgressFn(), &attr1);
    EXPECT_EQ(shardFor(attr1, "spmv").at("worker").asString(), "w1");
    EXPECT_EQ(shardFor(attr1, "spmv").at("origin").asString(),
              "computed");

    // Campaign 2 is spmv alone, bound to the idle w0. But w1
    // already computed this exact spmv shard, so w0's dispatch
    // pulls the bytes from w1's cache instead of recomputing.
    Json attr2;
    const Json doc2 = fleet.coord->runCampaign(
        2, campaignFor("spmv"), cancel, serve::FleetProgressFn(),
        &attr2);
    const Json shard = shardFor(attr2, "spmv");
    EXPECT_EQ(shard.at("origin").asString(), "peer-fetch");
    EXPECT_EQ(shard.at("worker").asString(), "w1");

    // Peer-fetched bytes are the original bytes.
    EXPECT_EQ(doc1.at("workloads").at(1).toString(0),
              doc2.at("workloads").at(0).toString(0));

    const Json stats = fleet.coord->statsJson();
    EXPECT_EQ(stats.at("peer_fetches").asInt(), 1);
    EXPECT_EQ(stats.at("peer_fetch_misses").asInt(), 0);
    // 2 computed dispatches; the peer fetch never dispatched.
    expectLedger(*fleet.coord, 2, 2, 0);
}

TEST(Fleet, UnreachablePeerIsForgottenAfterOneMiss)
{
    FleetOptions fopt;
    fopt.connectTimeoutSeconds = 0.25; // one connect attempt
    TestFleet fleet(2, std::move(fopt));
    CancelToken cancel;

    // spmv is computed on w1, which then goes away.
    Json attr1;
    fleet.coord->runCampaign(1, campaignFor("xsbench,spmv"), cancel,
                             serve::FleetProgressFn(), &attr1);
    ASSERT_EQ(shardFor(attr1, "spmv").at("worker").asString(), "w1");
    fleet.workers[1]->stop();

    // The first repeat binds to w0, misses on the dead peer once and
    // recomputes there; the second finds w0 as the shard's address
    // and hits w0's own cache without touching w1 again.
    const serve::SubmitRequest req = campaignFor("spmv");
    Json attr2;
    const Json doc = fleet.coord->runCampaign(
        2, req, cancel, serve::FleetProgressFn(), &attr2);
    EXPECT_EQ(shardFor(attr2, "spmv").at("worker").asString(), "w0");
    EXPECT_EQ(shardFor(attr2, "spmv").at("origin").asString(),
              "computed");
    EXPECT_EQ(fleet.coord->statsJson().at("peer_fetch_misses").asInt(),
              1);

    Json attr3;
    fleet.coord->runCampaign(3, req, cancel, serve::FleetProgressFn(),
                             &attr3);
    EXPECT_EQ(shardFor(attr3, "spmv").at("worker").asString(), "w0");
    EXPECT_EQ(shardFor(attr3, "spmv").at("origin").asString(),
              "cache-hit");
    const Json stats = fleet.coord->statsJson();
    EXPECT_EQ(stats.at("peer_fetch_misses").asInt(), 1);
    EXPECT_EQ(stats.at("peer_fetches").asInt(), 0);
    expectLedger(*fleet.coord, 4, 4, 0);

    const SweepResult res = runEvaluationSweep(req.sopt);
    EXPECT_EQ(doc.at("workloads").toString(0),
              sweepToJson(req.sopt, res).at("workloads").toString(0));
}

TEST(Fleet, BusyWorkerDoesNotHoldPendingShards)
{
    FleetOptions fopt;
    fopt.slotsPerWorker = 1;
    fopt.hedgeSeconds = 0;
    // w0 stalls every admitted job for 1.5 s; w1 runs undelayed.
    TestFleet fleet(2, std::move(fopt), {1.5, 0.0});
    const serve::SubmitRequest req = campaignFor("xsbench,spmv,stream");
    CancelToken cancel;
    Json attribution;
    const Json doc = fleet.coord->runCampaign(
        1, req, cancel, serve::FleetProgressFn(), &attribution);

    // xsbench and spmv fill the one slot of each worker; stream
    // stays pending until a slot frees, and w1's frees first.
    EXPECT_EQ(shardFor(attribution, "xsbench").at("worker").asString(),
              "w0");
    EXPECT_EQ(shardFor(attribution, "spmv").at("worker").asString(),
              "w1");
    EXPECT_EQ(shardFor(attribution, "stream").at("worker").asString(),
              "w1");
    expectLedger(*fleet.coord, 3, 3, 0);

    const SweepResult res = runEvaluationSweep(req.sopt);
    EXPECT_EQ(doc.at("workloads").toString(0),
              sweepToJson(req.sopt, res).at("workloads").toString(0));
}

TEST(Fleet, HedgedRetryWinsOnFastWorkerAndLoserIsCancelled)
{
    FleetOptions fopt;
    fopt.slotsPerWorker = 1;
    fopt.hedgeSeconds = 0.2;
    // w0 stalls every admitted job for 3 s — far beyond the hedge
    // deadline — while w1 runs undelayed.
    TestFleet fleet(2, std::move(fopt), {3.0, 0.0});
    const serve::SubmitRequest req = campaignFor("xsbench");
    CancelToken cancel;
    Json attribution;
    const Json doc = fleet.coord->runCampaign(
        1, req, cancel, serve::FleetProgressFn(), &attribution);

    // The single shard lands on w0, goes late, is hedged to w1, and
    // w1's result wins; the straggling primary is abandoned.
    const Json shard = shardFor(attribution, "xsbench");
    EXPECT_EQ(shard.at("worker").asString(), "w1");
    EXPECT_EQ(shard.at("origin").asString(), "computed");
    EXPECT_TRUE(shard.at("hedged").asBool());
    EXPECT_EQ(attribution.at("hedges").asInt(), 1);

    const Json stats = fleet.coord->statsJson();
    EXPECT_EQ(stats.at("hedges").asInt(), 1);
    EXPECT_EQ(stats.at("hedge_wins").asInt(), 1);
    expectLedger(*fleet.coord, 2, 1, 1);

    // A hedged result is still the correct result.
    const SweepResult res = runEvaluationSweep(req.sopt);
    EXPECT_EQ(doc.at("workloads").toString(0),
              sweepToJson(req.sopt, res).at("workloads").toString(0));
}

TEST(Fleet, ShardOfADeadWorkerIsRetriedOnAnother)
{
    FleetOptions fopt;
    fopt.connectTimeoutSeconds = 0.25; // one connect attempt
    TestFleet fleet(2, std::move(fopt));
    // w0 passed the start-up health check, then went away: the
    // single shard is bound to it first, fails to connect, and
    // re-enters pending to be bound to w1.
    fleet.workers[0]->stop();
    const serve::SubmitRequest req = campaignFor("xsbench");
    CancelToken cancel;
    Json attribution;
    const Json doc = fleet.coord->runCampaign(
        1, req, cancel, serve::FleetProgressFn(), &attribution);

    const Json shard = shardFor(attribution, "xsbench");
    EXPECT_EQ(shard.at("worker").asString(), "w1");
    EXPECT_EQ(shard.at("origin").asString(), "computed");
    EXPECT_FALSE(shard.at("hedged").asBool());
    const Json stats = fleet.coord->statsJson();
    EXPECT_EQ(stats.at("worker_rejections").asInt(), 1);
    expectLedger(*fleet.coord, 1, 1, 0);

    const SweepResult res = runEvaluationSweep(req.sopt);
    EXPECT_EQ(doc.at("workloads").toString(0),
              sweepToJson(req.sopt, res).at("workloads").toString(0));
}

TEST(Fleet, RepeatCampaignHitsTheWorkerCache)
{
    TestFleet fleet(1);
    const serve::SubmitRequest req = campaignFor("xsbench");
    CancelToken cancel;
    Json attr1;
    const Json doc1 = fleet.coord->runCampaign(
        1, req, cancel, serve::FleetProgressFn(), &attr1);
    EXPECT_EQ(shardFor(attr1, "xsbench").at("origin").asString(),
              "computed");

    // Same campaign again: the sole worker already holds the shard,
    // so the dispatch is a worker-side cache hit (peer fetch never
    // fires against the worker that is about to serve the shard
    // anyway — that would just hide the worker's own hit).
    Json attr2;
    const Json doc2 = fleet.coord->runCampaign(
        2, req, cancel, serve::FleetProgressFn(), &attr2);
    EXPECT_EQ(shardFor(attr2, "xsbench").at("origin").asString(),
              "cache-hit");
    EXPECT_EQ(doc1.at("workloads").toString(0),
              doc2.at("workloads").toString(0));

    const Json stats = fleet.coord->statsJson();
    EXPECT_EQ(stats.at("peer_fetches").asInt(), 0);
    expectLedger(*fleet.coord, 2, 2, 0);
}

TEST(Fleet, ConcurrentClientsThroughTheFrontEndGetExactResults)
{
    // Hedging off: every fresh campaign is exactly one dispatch, so
    // the ledger below is exact however slow the build is.
    FleetOptions fopt;
    fopt.hedgeSeconds = 0;
    TestFleet fleet(2, std::move(fopt));

    // The kfleetd front end: a Server whose submits run through the
    // coordinator and whose result cache answers repeats.
    serve::ServerOptions feOpt;
    feOpt.port = 0;
    feOpt.threads = 4;
    feOpt.warmStoreMb = 0;
    serve::Server frontEnd(feOpt);
    Coordinator &coord = *fleet.coord;
    frontEnd.setFleetBackend(
        [&coord](std::uint64_t id, const serve::SubmitRequest &req,
                 const CancelToken &cancel,
                 const serve::FleetProgressFn &progress,
                 Json *attribution) {
            return coord.runCampaign(id, req, cancel, progress,
                                     attribution);
        },
        [&coord](std::uint64_t id) { return coord.statusJson(id); },
        [&coord] { return coord.statsJson(); });
    std::string err;
    ASSERT_TRUE(frontEnd.start(&err)) << err;
    ScopedLogCapture quiet;

    const auto frameFor = [](std::uint64_t seed) {
        return serve::submitFrame(
            encodeSweepOptions(
                campaignFor("xsbench", 0.003, "DECTED", seed).sopt),
            0, false);
    };
    const auto submit = [&](serve::Client &client, std::uint64_t seed,
                            Json &terminal) {
        std::string why;
        if (!client.submit(frameFor(seed), terminal, {}, &why))
            terminal = Json::string("transport: " + why);
    };

    // Pre-warm two seeds; their replies fill the front-end cache.
    const std::vector<std::uint64_t> warmSeeds = {11, 12};
    std::vector<Json> fills(warmSeeds.size());
    {
        serve::Client client;
        ASSERT_TRUE(client.connectTcp(frontEnd.boundPort(), &err))
            << err;
        for (std::size_t i = 0; i < warmSeeds.size(); ++i) {
            submit(client, warmSeeds[i], fills[i]);
            ASSERT_EQ(fills[i].kind(), Json::Kind::Object)
                << fills[i].toString(0);
            ASSERT_EQ(fills[i].at("outcome").asString(), "done");
        }
    }

    // 12 jobs from 4 clients: even jobs are hits on the warm seeds,
    // odd jobs never-seen seeds the fleet must compute.
    constexpr unsigned kJobs = 12;
    const auto seedOf = [&](unsigned i) {
        return i % 2 == 0 ? warmSeeds[(i / 2) % warmSeeds.size()]
                          : std::uint64_t{100 + i};
    };
    std::vector<Json> replies(kJobs);
    std::atomic<unsigned> next{0};
    std::vector<std::thread> clients;
    for (unsigned c = 0; c < 4; ++c) {
        clients.emplace_back([&] {
            serve::Client client;
            if (!client.connectTcp(frontEnd.boundPort()))
                return;
            for (unsigned i = next.fetch_add(1); i < kJobs;
                 i = next.fetch_add(1))
                submit(client, seedOf(i), replies[i]);
        });
    }
    for (std::thread &t : clients)
        t.join();

    unsigned computed = 0;
    for (unsigned i = 0; i < kJobs; ++i) {
        SCOPED_TRACE("job " + std::to_string(i));
        const Json &reply = replies[i];
        ASSERT_EQ(reply.kind(), Json::Kind::Object)
            << reply.toString(0);
        ASSERT_EQ(reply.at("type").asString(), "result");
        ASSERT_EQ(reply.at("outcome").asString(), "done");
        if (i % 2 == 0) {
            // A hit is the stored bytes of the reply that filled it.
            EXPECT_TRUE(reply.at("cached").asBool());
            EXPECT_EQ(reply.at("result").toString(0),
                      fills[(i / 2) % warmSeeds.size()]
                          .at("result")
                          .toString(0));
            continue;
        }
        EXPECT_FALSE(reply.at("cached").asBool());
        ++computed;
        const SweepOptions sopt =
            campaignFor("xsbench", 0.003, "DECTED", seedOf(i)).sopt;
        const Json direct =
            sweepToJson(sopt, runEvaluationSweep(sopt));
        EXPECT_EQ(reply.at("result").at("workloads").toString(0),
                  direct.at("workloads").toString(0));
        EXPECT_EQ(reply.at("result").at("sweep").toString(0),
                  direct.at("sweep").toString(0));
    }
    EXPECT_EQ(computed, kJobs / 2);

    frontEnd.stop();
    // One single-shard dispatch per computed campaign (the two fills
    // and the fresh seeds); hits never reach the coordinator.
    const std::int64_t shards = warmSeeds.size() + computed;
    expectLedger(coord, shards, shards, 0);
}

TEST(Fleet, StartFailsWhenAWorkerIsUnreachable)
{
    FleetOptions fopt;
    WorkerEndpoint ep;
    ep.socketPath = "/tmp/kfleet-test-unreachable.sock";
    fopt.workers.push_back(ep);
    fopt.connectTimeoutSeconds = 0.3;
    Coordinator coord(std::move(fopt));
    std::string err;
    EXPECT_FALSE(coord.start(&err));
    EXPECT_NE(err.find("w0"), std::string::npos) << err;
}

TEST(Fleet, StartFailsWithNoWorkers)
{
    Coordinator coord(FleetOptions{});
    std::string err;
    EXPECT_FALSE(coord.start(&err));
    EXPECT_NE(err.find("no workers"), std::string::npos) << err;
}

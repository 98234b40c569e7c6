#include "fleet/coordinator.hh"

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <csignal>
#include <cstring>
#include <deque>
#include <stdexcept>
#include <thread>

#include <sys/wait.h>
#include <unistd.h>

#include "common/log.hh"
#include "serve/client/client.hh"
#include "serve/store.hh"
#include "serve/submit.hh"

namespace killi::fleet
{

namespace
{

double
sinceSeconds(std::chrono::steady_clock::time_point t0)
{
    return std::chrono::duration<double>(
               std::chrono::steady_clock::now() - t0)
        .count();
}

bool
isTimeout(const std::string &err)
{
    return err.rfind("timeout", 0) == 0;
}

} // namespace

/** One queued dispatch: a shard index, possibly as a hedge. */
struct QEntry
{
    std::size_t shardIdx = 0;
    bool hedge = false;
};

struct Coordinator::Shard
{
    std::size_t idx = 0;
    std::string workload;
    SweepOptions sopt;
    std::string canonical;
    std::string hash;
    /** A hedge has been issued for this shard (at most one). */
    std::atomic<bool> hedged{false};
    /** Terminal: a result has been accepted for this shard. */
    std::atomic<bool> settled{false};
    // Under Campaign::mtx from here on.
    unsigned attempts = 0;
    Json result;
    std::string worker;
    std::string origin;
};

struct Coordinator::Campaign
{
    std::uint64_t jobId = 0;
    std::mutex mtx;
    std::vector<std::unique_ptr<Shard>> shards;
    /** Per-worker dispatch queues (under mtx). */
    std::vector<std::deque<QEntry>> queues;
    /** Dispatches currently running per worker (under mtx). */
    std::vector<unsigned> inflight;
    std::size_t completedCount = 0;
    bool failed = false;
    std::string error;
    /** Campaign settled: success, failure, or cancellation. */
    std::atomic<bool> done{false};
    // Rolled into statusJson() while the campaign is in flight.
    std::atomic<std::uint64_t> dispatched{0};
    std::atomic<std::uint64_t> hedges{0};
    std::atomic<std::uint64_t> steals{0};
};

Coordinator::Coordinator(FleetOptions options) : opt(std::move(options))
{
    endpoints = opt.workers;
    for (unsigned i = 0; i < opt.spawnWorkers; ++i) {
        WorkerEndpoint ep;
        ep.socketPath = opt.spawnDir + "/w" +
                        std::to_string(endpoints.size()) + ".sock";
        endpoints.push_back(std::move(ep));
    }
    // append(), not "w" + ...: GCC 12 flags that as -Wrestrict.
    for (std::size_t w = 0; w < endpoints.size(); ++w)
        workerNames.push_back(std::string("w").append(std::to_string(w)));
    activeOn.assign(endpoints.size(), 0);
    registerFleetMetrics();
}

Coordinator::~Coordinator()
{
    shutdownWorkers();
}

void
Coordinator::registerFleetMetrics()
{
    if (!opt.registry) {
        ownRegistry = std::make_unique<metrics::MetricsRegistry>();
        opt.registry = ownRegistry.get();
    }
    auto &reg = *opt.registry;
    mCampaigns = &reg.counter("kfleet_campaigns_total",
                              "Campaigns run through the fleet");
    mDispatched = &reg.counter(
        "kfleet_shards_dispatched_total",
        "Shard dispatches that reached a worker's submitted frame");
    mCompleted = &reg.counter(
        "kfleet_shards_completed_total",
        "Dispatches whose result won their shard");
    mCancelled = &reg.counter(
        "kfleet_shards_cancelled_total",
        "Dispatches abandoned: hedge losses, worker failures, "
        "transport deaths, campaign cancellation");
    mSteals = &reg.counter(
        "kfleet_steals_total",
        "Shards stolen from another worker's queue");
    mHedges = &reg.counter(
        "kfleet_hedges_total",
        "Hedged re-dispatches issued for slow shards");
    mHedgeWins = &reg.counter(
        "kfleet_hedge_wins_total",
        "Hedged dispatches that won their shard");
    mPeerFetches = &reg.counter(
        "kfleet_peer_fetches_total",
        "Shards served by fetching bytes from the worker that "
        "computed them in an earlier campaign");
    mPeerFetchMisses = &reg.counter(
        "kfleet_peer_fetch_misses_total",
        "Peer fetches that found the entry evicted");
    mRejections = &reg.counter(
        "kfleet_worker_rejections_total",
        "Worker-side rejections (queue_full, overloaded, connect "
        "failures) that sent a shard elsewhere");
    mShardSeconds = &reg.histogram(
        "kfleet_shard_seconds",
        "Dispatch-to-settle latency of winning shard dispatches");
}

bool
Coordinator::spawnWorker(std::size_t idx, std::string *err)
{
    const WorkerEndpoint &ep = endpoints[idx];
    std::vector<std::string> args{
        opt.workerBin, "socket=" + ep.socketPath,
        "threads=" + std::to_string(opt.workerThreads)};
    std::vector<char *> argv;
    for (std::string &a : args)
        argv.push_back(a.data());
    argv.push_back(nullptr);

    const pid_t pid = ::fork();
    if (pid < 0) {
        if (err)
            *err = std::string("fork: ") + std::strerror(errno);
        return false;
    }
    if (pid == 0) {
        ::execv(opt.workerBin.c_str(), argv.data());
        // Exec failure in the child: nothing sane to do but exit;
        // the parent's connect probe reports the dead worker.
        ::_exit(127);
    }
    spawnedPids.push_back(pid);
    return true;
}

bool
Coordinator::connectWorker(std::size_t w, serve::Client &client,
                           std::string *err)
{
    serve::ConnectOptions copt;
    // Spread the per-worker budget over retries: ~100ms-spaced
    // early attempts riding out a worker that is still booting,
    // 2s-capped backoff after that.
    copt.attempts = unsigned(std::clamp(
        opt.connectTimeoutSeconds / 0.25, 1.0, 40.0));
    copt.timeoutMs = 2000;
    copt.backoffMs = 100;
    const WorkerEndpoint &ep = endpoints[w];
    if (!ep.socketPath.empty())
        return client.connectUnix(ep.socketPath, copt, err);
    return client.connectTcp(ep.port, copt, err);
}

bool
Coordinator::start(std::string *err)
{
    if (endpoints.empty()) {
        if (err)
            *err = "fleet has no workers (workers= / spawn-workers=)";
        return false;
    }
    const std::size_t firstSpawned =
        endpoints.size() - opt.spawnWorkers;
    for (std::size_t w = firstSpawned; w < endpoints.size(); ++w) {
        ::unlink(endpoints[w].socketPath.c_str());
        if (!spawnWorker(w, err))
            return false;
    }
    // Every worker answers a ping before the fleet reports healthy —
    // spawned ones are racing their own bind, hence the retry
    // budget in connectWorker().
    for (std::size_t w = 0; w < endpoints.size(); ++w) {
        serve::Client client;
        std::string werr;
        if (!connectWorker(w, client, &werr)) {
            if (err)
                *err = "worker " + workerNames[w] + ": " + werr;
            return false;
        }
        Json ping = Json::object();
        ping.set("type", Json::string("ping"));
        Json pong;
        if (!client.send(ping, &werr) ||
            !client.recvWithin(pong, 10000, &werr)) {
            if (err)
                *err = "worker " + workerNames[w] + ": " + werr;
            return false;
        }
    }
    if (opt.registry)
        opt.registry->gaugeFn(
            "kfleet_workers", "Workers attached to the campaign fabric",
            {}, [workers = double(endpoints.size())] { return workers; });
    inform("kfleet: %zu worker(s) healthy (%u spawned)",
           endpoints.size(), opt.spawnWorkers);
    return true;
}

void
Coordinator::shutdownWorkers()
{
    if (workersDown.exchange(true))
        return;
    if (spawnedPids.empty())
        return;
    const std::size_t firstSpawned =
        endpoints.size() - spawnedPids.size();
    // Graceful first: a drain frame lets in-flight jobs finish and
    // flushes replies; SIGTERM (same drain path in kserved) is the
    // fallback for a worker that never answered the socket.
    for (std::size_t i = 0; i < spawnedPids.size(); ++i) {
        serve::Client client;
        std::string werr;
        const std::size_t w = firstSpawned + i;
        bool drained = false;
        if (connectWorker(w, client, &werr)) {
            Json drain = Json::object();
            drain.set("type", Json::string("drain"));
            Json reply;
            // Wait for the "draining" ack so the frame is known
            // delivered before the socket closes.
            drained = client.send(drain, &werr) &&
                      client.recvWithin(reply, 5000, &werr);
        }
        if (!drained)
            ::kill(spawnedPids[i], SIGTERM);
    }
    for (const pid_t pid : spawnedPids) {
        const auto t0 = std::chrono::steady_clock::now();
        bool reaped = false;
        while (sinceSeconds(t0) < 10.0) {
            int status = 0;
            const pid_t got = ::waitpid(pid, &status, WNOHANG);
            if (got == pid || (got < 0 && errno == ECHILD)) {
                reaped = true;
                break;
            }
            std::this_thread::sleep_for(
                std::chrono::milliseconds(50));
        }
        if (!reaped) {
            warn("kfleet: worker pid %d ignored drain; SIGTERM",
                 int(pid));
            ::kill(pid, SIGTERM);
            int status = 0;
            ::waitpid(pid, &status, 0);
        }
    }
    spawnedPids.clear();
}

bool
Coordinator::tryPeerFetch(Campaign &camp, Shard &shard,
                          std::size_t w,
                          const serve::FleetProgressFn &progress)
{
    std::size_t peer;
    {
        std::lock_guard<std::mutex> lock(peerMtx);
        const auto it = completedBy.find(shard.hash);
        if (it == completedBy.end())
            return false;
        peer = it->second;
    }
    // Same worker: a normal dispatch is already a local cache hit
    // there, which keeps the worker's own hit accounting honest.
    if (peer == w)
        return false;
    serve::Client client;
    std::string err;
    if (!connectWorker(peer, client, &err))
        return false;
    Json fetch = Json::object();
    fetch.set("type", Json::string("fetch"));
    fetch.set("key", Json::string(shard.hash));
    Json reply;
    if (!client.send(fetch, &err) ||
        !client.recvWithin(reply, 10000, &err))
        return false;
    if (reply.at("type").asString() != "fetch_reply" ||
        !reply.at("found").asBool()) {
        // Evicted on the peer since we recorded it; forget the
        // stale address and recompute.
        mPeerFetchMisses->inc();
        std::lock_guard<std::mutex> lock(peerMtx);
        completedBy.erase(shard.hash);
        return false;
    }
    if (!settleShard(camp, shard, peer, "peer-fetch",
                     shard.hedged.load(), reply.at("result"),
                     progress))
        return false; // raced a concurrent dispatch; its accounting stands
    mPeerFetches->inc();
    return true;
}

bool
Coordinator::settleShard(Campaign &camp, Shard &shard,
                         std::size_t w, const char *origin,
                         bool hedged, Json result,
                         const serve::FleetProgressFn &progress)
{
    std::size_t doneCount = 0;
    std::size_t total = 0;
    {
        std::lock_guard<std::mutex> lock(camp.mtx);
        if (shard.settled.load())
            return false;
        shard.result = std::move(result);
        shard.worker = workerNames[w];
        shard.origin = origin;
        shard.settled.store(true);
        (void)hedged;
        doneCount = ++camp.completedCount;
        total = camp.shards.size();
        if (doneCount == total)
            camp.done.store(true);
    }
    {
        std::lock_guard<std::mutex> lock(peerMtx);
        completedBy[shard.hash] = w;
    }
    if (progress) {
        SweepProgress p;
        p.point = shard.workload;
        p.pointDone = true;
        p.pointsDone = doneCount;
        p.pointsTotal = total;
        progress(p);
    }
    return true;
}

std::size_t
Coordinator::otherWorker(const Campaign &camp, std::size_t w) const
{
    std::size_t target = (w + 1) % endpoints.size();
    for (std::size_t j = 0; j < endpoints.size(); ++j)
        if (j != w && camp.queues[j].size() < camp.queues[target].size())
            target = j;
    return target;
}

void
Coordinator::runDispatch(Campaign &camp, Shard &shard,
                         std::size_t w, bool isHedge,
                         const CancelToken &cancel,
                         const serve::FleetProgressFn &progress)
{
    // Reschedule-or-fail for a dispatch that died before settling
    // the shard. The shard moves to another worker's queue until
    // its attempt budget runs out, which fails the whole campaign.
    const auto reschedule = [&](const std::string &why) {
        std::lock_guard<std::mutex> lock(camp.mtx);
        if (shard.settled.load() || camp.failed)
            return;
        if (shard.attempts >= opt.maxShardAttempts) {
            camp.failed = true;
            camp.error = "shard '" + shard.workload + "' failed " +
                         std::to_string(shard.attempts) +
                         " dispatch(es); last: " + why;
            camp.done.store(true);
            return;
        }
        camp.queues[otherWorker(camp, w)].push_back(
            QEntry{shard.idx, isHedge});
    };

    if (!isHedge && tryPeerFetch(camp, shard, w, progress))
        return;

    {
        std::lock_guard<std::mutex> lock(camp.mtx);
        if (shard.settled.load() || camp.failed)
            return;
        ++shard.attempts;
    }

    serve::Client client;
    std::string err;
    if (!connectWorker(w, client, &err)) {
        mRejections->inc();
        reschedule("connect " + workerNames[w] + ": " + err);
        return;
    }
    // The worker decodes these options to exactly shard.canonical,
    // so worker caches and peer fetch address the hashes a direct
    // submit of the subset would. Shard progress is not streamed:
    // the coordinator synthesizes campaign-level point events.
    if (!client.send(
            serve::submitFrame(encodeSweepOptions(shard.sopt), 0,
                               false),
            &err)) {
        mRejections->inc();
        reschedule("send " + workerNames[w] + ": " + err);
        return;
    }

    const auto t0 = std::chrono::steady_clock::now();
    bool submitted = false;
    bool cachedFlag = false;
    const auto abandon = [&] {
        // This dispatch reached the submitted frame, so it must
        // land in a terminal bucket: cancelled. Closing the
        // connection lets the worker's orphan-cancel sweep reap
        // the job itself.
        mCancelled->inc();
    };

    while (true) {
        Json frame;
        if (!client.recvWithin(frame, 50, &err)) {
            if (isTimeout(err)) {
                if (cancel.cancelled() || camp.done.load() ||
                    shard.settled.load()) {
                    if (submitted)
                        abandon();
                    return;
                }
                if (submitted && !isHedge && opt.hedgeSeconds > 0 &&
                    sinceSeconds(t0) > opt.hedgeSeconds &&
                    !shard.hedged.exchange(true)) {
                    std::lock_guard<std::mutex> lock(camp.mtx);
                    if (!shard.settled.load() && !camp.failed) {
                        // Front of the queue: a hedge exists
                        // because the shard is already late.
                        camp.queues[otherWorker(camp, w)].push_front(
                            QEntry{shard.idx, true});
                        camp.hedges.fetch_add(1);
                        mHedges->inc();
                    }
                }
                continue;
            }
            // Transport death mid-dispatch.
            if (submitted)
                abandon();
            else
                mRejections->inc();
            reschedule("worker " + workerNames[w] + ": " + err);
            return;
        }
        const std::string &type = frame.at("type").asString();
        if (type == "submitted") {
            submitted = true;
            cachedFlag = frame.at("cached").asBool();
            if (frame.at("key").asString() != shard.hash)
                warn("kfleet: shard '%s' canonicalized to %s on %s "
                     "but %s here — cache/peer addressing is "
                     "broken",
                     shard.workload.c_str(),
                     frame.at("key").asString().c_str(),
                     workerNames[w].c_str(), shard.hash.c_str());
            mDispatched->inc();
            camp.dispatched.fetch_add(1);
            continue;
        }
        if (type == "progress")
            continue;
        if (type == "error") {
            // Pre-admission rejection (overloaded / bad_request):
            // no submitted frame, so nothing entered the
            // dispatched bucket.
            mRejections->inc();
            reschedule("worker " + workerNames[w] + ": " +
                       frame.at("error").asString());
            return;
        }
        if (type != "result")
            continue;

        const std::string &outcome = frame.at("outcome").asString();
        if (outcome == "done") {
            const bool won = settleShard(
                camp, shard, w,
                cachedFlag || frame.at("cached").asBool()
                    ? "cache-hit"
                    : "computed",
                isHedge || shard.hedged.load(), frame.at("result"),
                progress);
            if (won) {
                mCompleted->inc();
                mShardSeconds->observe(sinceSeconds(t0));
                if (isHedge)
                    mHedgeWins->inc();
            } else {
                abandon();
            }
            return;
        }
        if (outcome == "rejected") {
            // queue_full arrives after the submitted frame, so the
            // dispatch is accounted cancelled AND as a rejection.
            abandon();
            mRejections->inc();
            reschedule("worker " + workerNames[w] +
                       " rejected: " + frame.at("error").asString());
            return;
        }
        // failed / cancelled terminal outcome.
        abandon();
        if (cancel.cancelled() || shard.settled.load())
            return;
        reschedule("worker " + workerNames[w] + " outcome " +
                   outcome + ": " +
                   (frame.contains("error")
                        ? frame.at("error").asString()
                        : ""));
        return;
    }
}

void
Coordinator::dispatchLoop(Campaign &camp, std::size_t w,
                          const CancelToken &cancel,
                          const serve::FleetProgressFn &progress)
{
    while (!camp.done.load() && !cancel.cancelled()) {
        QEntry entry;
        bool have = false;
        bool stolen = false;
        {
            std::lock_guard<std::mutex> lock(camp.mtx);
            if (!camp.queues[w].empty()) {
                entry = camp.queues[w].front();
                camp.queues[w].pop_front();
                have = true;
            } else {
                // Steal from the back of the most overloaded OTHER
                // queue — but only when that queue exceeds its
                // owner's idle slot capacity. An entry a free owner
                // slot will pick up within its next poll tick is
                // not up for grabs: stealing it would defeat the
                // round-robin placement (on a one-core host, w0's
                // dispatchers start first and would otherwise drain
                // every queue before the other workers' threads
                // even run).
                const std::size_t slots =
                    std::max(1u, opt.slotsPerWorker);
                std::size_t victim = endpoints.size();
                std::size_t worst = 0;
                for (std::size_t j = 0; j < endpoints.size(); ++j) {
                    if (j == w)
                        continue;
                    const std::size_t qlen = camp.queues[j].size();
                    if (qlen == 0)
                        continue;
                    const std::size_t idle =
                        slots > camp.inflight[j]
                            ? slots - camp.inflight[j]
                            : 0;
                    if (qlen > idle && qlen + camp.inflight[j] >
                                           worst) {
                        worst = qlen + camp.inflight[j];
                        victim = j;
                    }
                }
                if (victim < endpoints.size()) {
                    entry = camp.queues[victim].back();
                    camp.queues[victim].pop_back();
                    have = true;
                    stolen = true;
                }
            }
            if (have)
                ++camp.inflight[w];
        }
        if (have) {
            std::lock_guard<std::mutex> lock(loadMtx);
            ++activeOn[w];
        }
        if (!have) {
            // Nothing queued anywhere; the campaign may still have
            // dispatches in flight on other slots.
            std::this_thread::sleep_for(
                std::chrono::milliseconds(5));
            continue;
        }
        if (stolen) {
            mSteals->inc();
            camp.steals.fetch_add(1);
        }
        Shard &shard = *camp.shards[entry.shardIdx];
        if (!shard.settled.load())
            runDispatch(camp, shard, w, entry.hedge, cancel,
                        progress);
        {
            std::lock_guard<std::mutex> lock(camp.mtx);
            --camp.inflight[w];
        }
        {
            std::lock_guard<std::mutex> lock(loadMtx);
            --activeOn[w];
        }
    }
}

Json
Coordinator::runCampaign(std::uint64_t jobId,
                         const serve::SubmitRequest &req,
                         const CancelToken &cancel,
                         const serve::FleetProgressFn &progress,
                         Json *attribution)
{
    const auto t0 = std::chrono::steady_clock::now();
    mCampaigns->inc();
    const std::size_t nWorkers = endpoints.size();
    if (nWorkers == 0)
        throw std::runtime_error("fleet has no workers");

    // Rotating round-robin origin: campaign k starts dealing at
    // worker k % N, so a shard recurring across campaigns lands on
    // a different worker and exercises the peer-fetch path.
    const std::uint64_t offset = campaignCounter.fetch_add(1);

    Campaign camp;
    camp.jobId = jobId;
    camp.queues.resize(nWorkers);
    camp.inflight.resize(nWorkers, 0);
    std::vector<unsigned> placedNow(nWorkers, 0);
    for (std::size_t i = 0; i < req.sopt.workloads.size(); ++i) {
        auto shard = std::make_unique<Shard>();
        shard->idx = i;
        shard->workload = req.sopt.workloads[i];
        shard->sopt = req.sopt;
        shard->sopt.workloads = {shard->workload};
        shard->canonical = serve::canonicalKeyFor(shard->sopt);
        shard->hash = serve::ResultStore::hashKey(shard->canonical);
        // Place on the globally least-busy worker; the rotation
        // offset orders the scan, so an idle fleet degenerates to
        // plain round-robin (which the peer-fetch tests pin).
        std::size_t target = (offset + i) % nWorkers;
        {
            std::lock_guard<std::mutex> lock(loadMtx);
            unsigned best = ~0u;
            for (std::size_t k = 0; k < nWorkers; ++k) {
                const std::size_t idx = (offset + i + k) % nWorkers;
                const unsigned load =
                    activeOn[idx] + placedNow[idx];
                if (load < best) {
                    best = load;
                    target = idx;
                }
            }
        }
        ++placedNow[target];
        camp.queues[target].push_back(QEntry{i, false});
        camp.shards.push_back(std::move(shard));
    }
    {
        std::lock_guard<std::mutex> lock(activeMtx);
        active[jobId] = &camp;
    }
    std::vector<std::thread> slots;
    for (std::size_t w = 0; w < nWorkers; ++w)
        for (unsigned s = 0; s < std::max(1u, opt.slotsPerWorker);
             ++s)
            slots.emplace_back([this, &camp, w, &cancel,
                                &progress] {
                dispatchLoop(camp, w, cancel, progress);
            });
    for (std::thread &t : slots)
        t.join();
    {
        std::lock_guard<std::mutex> lock(activeMtx);
        active.erase(jobId);
    }
    if (cancel.cancelled())
        return Json(); // server discards cancelled results
    {
        std::lock_guard<std::mutex> lock(camp.mtx);
        if (camp.failed)
            throw std::runtime_error(camp.error);
        if (camp.completedCount != camp.shards.size())
            throw std::runtime_error(
                "campaign stalled: " +
                std::to_string(camp.completedCount) + "/" +
                std::to_string(camp.shards.size()) +
                " shards settled");
    }

    if (attribution) {
        Json shards = Json::array();
        for (const auto &shard : camp.shards) {
            Json entry = Json::object();
            entry.set("workload", Json::string(shard->workload));
            entry.set("worker", Json::string(shard->worker));
            entry.set("origin", Json::string(shard->origin));
            entry.set("hedged",
                      Json::boolean(shard->hedged.load()));
            shards.push(std::move(entry));
        }
        Json doc = Json::object();
        doc.set("workers",
                Json::number(std::uint64_t(nWorkers)));
        doc.set("hedges", Json::number(camp.hedges.load()));
        doc.set("steals", Json::number(camp.steals.load()));
        doc.set("shards", std::move(shards));
        *attribution = std::move(doc);
    }

    // Merge: per-workload "workloads" entries concatenate in
    // campaign order (runEvaluationSweep pre-sizes result slots, so
    // each entry is independent of what else ran in its process);
    // "sweep" carries no per-workload state, so shard 0's copy is
    // the campaign's. Member order mirrors the local path in
    // Server::handleSubmit — bit-identity depends on it.
    Json doc = Json::object();
    doc.set("bench", Json::string("kserved"));
    doc.set("options", serve::resolvedOptionsJson(req.sopt));
    doc.set("sweep", camp.shards[0]->result.at("sweep"));
    Json workloads = Json::array();
    Json jobArray = Json::array();
    for (const auto &shard : camp.shards) {
        const Json &r = shard->result;
        const Json &wl = r.at("workloads");
        for (std::size_t k = 0; k < wl.size(); ++k)
            workloads.push(wl.at(k));
        const Json &jobs = r.at("campaign").at("jobs");
        for (std::size_t k = 0; k < jobs.size(); ++k)
            jobArray.push(jobs.at(k));
    }
    doc.set("workloads", std::move(workloads));
    Json campaign = Json::object();
    campaign.set("threads",
                 Json::number(std::int64_t(nWorkers)));
    campaign.set("seconds", Json::number(sinceSeconds(t0)));
    campaign.set("jobs", std::move(jobArray));
    doc.set("campaign", std::move(campaign));
    return doc;
}

Json
Coordinator::statusJson(std::uint64_t jobId)
{
    std::lock_guard<std::mutex> activeLock(activeMtx);
    const auto it = active.find(jobId);
    if (it == active.end())
        return Json();
    Campaign &camp = *it->second;
    std::size_t done = 0;
    std::size_t total = 0;
    {
        std::lock_guard<std::mutex> lock(camp.mtx);
        done = camp.completedCount;
        total = camp.shards.size();
    }
    Json doc = Json::object();
    doc.set("shards_total", Json::number(std::uint64_t(total)));
    doc.set("shards_done", Json::number(std::uint64_t(done)));
    doc.set("dispatched", Json::number(camp.dispatched.load()));
    doc.set("hedges", Json::number(camp.hedges.load()));
    doc.set("steals", Json::number(camp.steals.load()));
    return doc;
}

Json
Coordinator::statsJson()
{
    Json doc = Json::object();
    doc.set("workers",
            Json::number(std::uint64_t(endpoints.size())));
    doc.set("campaigns", Json::number(mCampaigns->value()));
    doc.set("shards_dispatched", Json::number(mDispatched->value()));
    doc.set("shards_completed", Json::number(mCompleted->value()));
    doc.set("shards_cancelled", Json::number(mCancelled->value()));
    doc.set("steals", Json::number(mSteals->value()));
    doc.set("hedges", Json::number(mHedges->value()));
    doc.set("hedge_wins", Json::number(mHedgeWins->value()));
    doc.set("peer_fetches", Json::number(mPeerFetches->value()));
    doc.set("peer_fetch_misses",
            Json::number(mPeerFetchMisses->value()));
    doc.set("worker_rejections", Json::number(mRejections->value()));
    return doc;
}

} // namespace killi::fleet

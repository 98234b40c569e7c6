#include "fleet/coordinator.hh"

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cmath>
#include <csignal>
#include <cstring>
#include <deque>
#include <list>
#include <stdexcept>
#include <thread>

#include <poll.h>
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

/** Dispatch attempts per shard before its campaign fails. */
constexpr unsigned kMaxShardAttempts = 3;

/** A peer fetch with no reply after this long is a miss. */
constexpr double kPeerFetchSeconds = 10.0;

double
sinceSeconds(std::chrono::steady_clock::time_point t0)
{
    return std::chrono::duration<double>(
               std::chrono::steady_clock::now() - t0)
        .count();
}

/**
 * The shard result @p frame carries, checked for every member the
 * merge reads ("sweep", "workloads", "campaign.jobs"), so a malformed
 * one throws killi::Error on receipt, where the shard can still be
 * rescheduled, not at the merge.
 */
const Json &
shardResultOf(const Json &frame)
{
    const Json &result = frame.at("result");
    (void)result.at("sweep").members();
    for (const Json *list :
         {&result.at("workloads"), &result.at("campaign").at("jobs")}) {
        if (list->kind() != Json::Kind::Array)
            throwError("result \"workloads\" and \"campaign.jobs\" "
                       "must be arrays");
    }
    return result;
}

/** A worker's reply to a shard submit, or a peer's to a fetch,
 *  decoded once and checked. */
struct ShardReply
{
    enum class Kind
    {
        Submitted, //!< admitted: key, cached
        Error,     //!< refused before admission: error
        Done,      //!< terminal, with a result: cached, result
        Ended,     //!< terminal without one: outcome, error
        Fetched,   //!< a peer's cache hit: result
        Other      //!< progress, a peer's miss or an unknown type
    };
    Kind kind = Kind::Other;
    bool cached = false;
    std::string key;
    std::string outcome;
    std::string error; //!< "" when the frame carries none
    const Json *result = nullptr; //!< into the decoded frame
};

/** Decode @p frame, an untrusted worker or peer frame: a member its
 *  type needs that is missing or of the wrong kind throws
 *  killi::Error from the Json accessors. */
ShardReply
decodeShardReply(const Json &frame)
{
    ShardReply out;
    const std::string &type = frame.at("type").asString();
    if (type == "fetch_reply") {
        if (frame.at("found").asBool()) {
            out.kind = ShardReply::Kind::Fetched;
            out.result = &shardResultOf(frame);
        }
        return out;
    }
    if (type != "error" && type != "submitted" && type != "result")
        return out; // progress and anything newer: skipped
    if (frame.contains("error"))
        out.error = frame.at("error").asString();
    if (type == "error") {
        out.kind = ShardReply::Kind::Error;
        return out;
    }
    out.cached = frame.at("cached").asBool();
    if (type == "submitted") {
        out.kind = ShardReply::Kind::Submitted;
        out.key = frame.at("key").asString();
        return out;
    }
    out.outcome = frame.at("outcome").asString();
    out.kind = out.outcome == "done" ? ShardReply::Kind::Done
                                     : ShardReply::Kind::Ended;
    if (out.kind == ShardReply::Kind::Done)
        out.result = &shardResultOf(frame);
    return out;
}

} // namespace

/** One pending dispatch: a shard index, possibly as a hedge. */
struct Pending
{
    std::size_t shardIdx = 0;
    bool hedge = false;
};

struct Coordinator::Shard
{
    std::string workload;
    SweepOptions sopt;
    std::string hash;
    /** A hedge has been issued for this shard (at most one). */
    bool hedged = false;
    /** Terminal: a result has been accepted for this shard. */
    bool settled = false;
    unsigned attempts = 0;
    /** Workers the shard's next dispatch is not bound to: its hedged
     *  primary's and those a dispatch of it failed on (once every
     *  worker has failed it, only the latest). */
    std::vector<bool> avoid;
    Json result;
    std::string worker;
    std::string origin;
};

/** A bound pending entry: it holds a slot of worker w and one
 *  connection until it is closed. */
struct Coordinator::Dispatch
{
    std::size_t shardIdx = 0;
    bool hedge = false;
    std::size_t w = 0;
    /** The peer a "fetch" waits on, else none. */
    std::size_t peer = SIZE_MAX;
    serve::Client client;
    std::chrono::steady_clock::time_point t0; //!< fetch or submit sent
    /** Admitted and not completed: closing it counts as cancelled. */
    bool submitted = false;
    bool cached = false;
    bool closed = false;
};

/** One campaign's state, touched only by the thread running it;
 *  statusJson() reads just the atomics and the shard count. */
struct Coordinator::Campaign
{
    std::vector<Shard> shards;
    /** Dispatches not yet bound to a worker. */
    std::deque<Pending> pending;
    /** Bound dispatches; closed ones are swept every loop turn. */
    std::list<Dispatch> live;
    /** This campaign's used slots per worker. */
    std::vector<unsigned> inflight;
    /** Why the campaign failed; empty unless it has. */
    std::string error;
    std::atomic<std::size_t> completedCount{0};
    std::atomic<std::uint64_t> dispatched{0};
    std::atomic<std::uint64_t> hedges{0};

    /** Settled: failed, or every shard has a result. */
    bool done() const
    {
        return !error.empty() || completedCount == shards.size();
    }
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
        "Peer fetches that found the entry evicted or the peer "
        "unreachable");
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
                           bool retry, std::string *err)
{
    serve::ConnectOptions copt;
    // A single attempt runs on a campaign's loop, so it may hold up
    // that campaign's other dispatches: 250 ms is ample for the Unix
    // and loopback endpoints a fleet has, which accept or refuse at
    // once.
    copt.timeoutMs = retry ? 2000 : 250;
    if (retry) {
        // Ride out a worker that is still binding its socket:
        // attempts 100 ms apart at first, then every 250 ms, so the
        // budget bounds the whole wait.
        copt.attempts = unsigned(
            std::max(1.0, opt.connectTimeoutSeconds / 0.25));
        copt.backoffMs = 100;
        copt.maxBackoffMs = 250;
    }
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
        Json ping = Json::object();
        ping.set("type", Json::string("ping"));
        Json pong;
        if (!connectWorker(w, client, true, &werr) ||
            !client.send(ping, &werr) ||
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
        if (connectWorker(w, client, true, &werr)) {
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

/** Close @p d and free its worker slot. Closing an admitted job's
 *  connection lets the worker's orphan-cancel sweep reap it. */
void
Coordinator::closeDispatch(Campaign &camp, Dispatch &d)
{
    if (d.closed)
        return;
    if (d.submitted)
        mCancelled->inc();
    d.client.close();
    d.closed = true;
    --camp.inflight[d.w];
    std::lock_guard<std::mutex> lock(loadMtx);
    --activeOn[d.w];
}

/** Close @p d, which failed on its worker, and put its shard at the
 *  back of the pending list, away from every worker it failed on,
 *  until the shard's attempt budget runs out, which fails the whole
 *  campaign; @p why follows "worker w<i>" in that error. */
void
Coordinator::rescheduleDispatch(Campaign &camp, Dispatch &d,
                                const std::string &why)
{
    closeDispatch(camp, d);
    Shard &shard = camp.shards[d.shardIdx];
    if (shard.settled || !camp.error.empty())
        return;
    shard.avoid[d.w] = true;
    if (std::find(shard.avoid.begin(), shard.avoid.end(), false) ==
        shard.avoid.end()) {
        shard.avoid.assign(shard.avoid.size(), false);
        shard.avoid[d.w] = true;
    }
    if (shard.attempts >= kMaxShardAttempts) {
        camp.error = "shard '" + shard.workload + "' failed " +
                     std::to_string(shard.attempts) +
                     " dispatch(es); last: worker " + workerNames[d.w] +
                     why;
        return;
    }
    camp.pending.push_back(Pending{d.shardIdx, d.hedge});
}

void
Coordinator::settleShard(Campaign &camp, Dispatch &d, std::size_t w,
                         const char *origin, const Json &result,
                         const serve::FleetProgressFn &progress)
{
    Shard &shard = camp.shards[d.shardIdx];
    shard.result = result;
    shard.worker = workerNames[w];
    shard.origin = origin;
    shard.settled = true;
    const std::size_t doneCount = ++camp.completedCount;
    // The shard's other dispatch (a hedge or its primary) loses now.
    for (Dispatch &other : camp.live)
        if (other.shardIdx == d.shardIdx)
            closeDispatch(camp, other);
    {
        std::lock_guard<std::mutex> lock(peerMtx);
        completedBy[shard.hash] = w;
    }
    if (progress) {
        SweepProgress p;
        p.point = shard.workload;
        p.pointDone = true;
        p.pointsDone = doneCount;
        p.pointsTotal = camp.shards.size();
        progress(p);
    }
}

/** Start @p d: a "fetch" frame to the peer that computed its shard
 *  when one is known, else the "submit" frame to its worker. */
void
Coordinator::startDispatch(Campaign &camp, Dispatch &d)
{
    const Shard &shard = camp.shards[d.shardIdx];
    if (!d.hedge) {
        std::lock_guard<std::mutex> lock(peerMtx);
        const auto it = completedBy.find(shard.hash);
        // Not from d's own worker: a normal dispatch is already a
        // local cache hit there, which keeps the worker's own hit
        // accounting honest.
        if (it != completedBy.end() && it->second != d.w)
            d.peer = it->second;
    }
    if (d.peer == SIZE_MAX) {
        submitDispatch(camp, d);
        return;
    }
    Json fetch = Json::object();
    fetch.set("type", Json::string("fetch"));
    fetch.set("key", Json::string(shard.hash));
    std::string err;
    d.t0 = std::chrono::steady_clock::now();
    if (!connectWorker(d.peer, d.client, false, &err) ||
        !d.client.send(fetch, &err))
        peerMiss(camp, d);
}

/** @p d's peer fetch missed: the entry was evicted, the peer is gone
 *  or silent, or its reply is malformed. Forget the stale address, so
 *  a dead peer costs one connect attempt rather than one per later
 *  dispatch of the shard, and submit to d's own worker. */
void
Coordinator::peerMiss(Campaign &camp, Dispatch &d)
{
    mPeerFetchMisses->inc();
    d.client.close();
    {
        std::lock_guard<std::mutex> lock(peerMtx);
        const auto it = completedBy.find(camp.shards[d.shardIdx].hash);
        if (it != completedBy.end() && it->second == d.peer)
            completedBy.erase(it);
    }
    d.peer = SIZE_MAX;
    submitDispatch(camp, d);
}

/** Send @p d's shard to its worker; a failure reschedules it. */
void
Coordinator::submitDispatch(Campaign &camp, Dispatch &d)
{
    Shard &shard = camp.shards[d.shardIdx];
    ++shard.attempts;
    // One connect attempt: a refusing worker is a rejection that
    // reschedules. The worker decodes these options to exactly the
    // shard's canonical key, so worker caches and peer fetch address
    // the hashes a direct submit of the subset would. Shard progress
    // is not streamed: the coordinator synthesizes campaign-level
    // point events.
    std::string err;
    if (!connectWorker(d.w, d.client, false, &err) ||
        !d.client.send(serve::submitFrame(
                           encodeSweepOptions(shard.sopt), 0, false),
                       &err)) {
        mRejections->inc();
        rescheduleDispatch(camp, d, ": " + err);
        return;
    }
    d.t0 = std::chrono::steady_clock::now();
}

void
Coordinator::pumpDispatch(Campaign &camp, Dispatch &d,
                          const serve::FleetProgressFn &progress)
{
    const Shard &shard = camp.shards[d.shardIdx];
    while (!d.closed) {
        Json frame;
        std::string err;
        if (!d.client.recvWithin(frame, 0, &err)) {
            if (err.rfind("timeout", 0) == 0)
                return; // nothing more has arrived yet
            if (d.peer != SIZE_MAX) {
                peerMiss(camp, d);
                return;
            }
            // Transport death mid-dispatch: cancelled once admitted,
            // else a rejection.
            if (!d.submitted)
                mRejections->inc();
            rescheduleDispatch(camp, d, ": " + err);
            return;
        }
        ShardReply reply;
        try {
            reply = decodeShardReply(frame);
        } catch (const Error &e) {
            if (d.peer != SIZE_MAX) {
                peerMiss(camp, d);
                return;
            }
            // A malformed reply is a failed dispatch: a rejection,
            // and, once admitted, cancelled as well.
            mRejections->inc();
            rescheduleDispatch(
                camp, d, std::string(": malformed reply: ") + e.what());
            return;
        }
        if (d.peer != SIZE_MAX) {
            if (reply.kind != ShardReply::Kind::Fetched) {
                peerMiss(camp, d);
                return;
            }
            mPeerFetches->inc();
            settleShard(camp, d, d.peer, "peer-fetch", *reply.result,
                        progress);
            return;
        }
        switch (reply.kind) {
          case ShardReply::Kind::Other:
          case ShardReply::Kind::Fetched: // not an answer to a submit
            continue;
          case ShardReply::Kind::Submitted:
            d.submitted = true;
            d.cached = reply.cached;
            if (reply.key != shard.hash)
                warn("kfleet: shard '%s' canonicalized to %s on %s "
                     "but %s here — cache/peer addressing is "
                     "broken",
                     shard.workload.c_str(), reply.key.c_str(),
                     workerNames[d.w].c_str(), shard.hash.c_str());
            mDispatched->inc();
            camp.dispatched.fetch_add(1);
            continue;
          case ShardReply::Kind::Error:
            // Pre-admission rejection (overloaded / bad_request):
            // no submitted frame, so nothing entered the
            // dispatched bucket.
            mRejections->inc();
            rescheduleDispatch(camp, d, ": " + reply.error);
            return;
          case ShardReply::Kind::Done:
            mCompleted->inc();
            d.submitted = false; // completed, so never cancelled
            mShardSeconds->observe(sinceSeconds(d.t0));
            if (d.hedge)
                mHedgeWins->inc();
            settleShard(camp, d, d.w,
                        d.cached || reply.cached ? "cache-hit"
                                                 : "computed",
                        *reply.result, progress);
            return;
          case ShardReply::Kind::Ended:
            if (reply.outcome == "rejected") {
                // queue_full arrives after the submitted frame, so
                // the dispatch is accounted cancelled AND as a
                // rejection.
                mRejections->inc();
                rescheduleDispatch(camp, d, " rejected: " + reply.error);
                return;
            }
            // failed / cancelled terminal outcome.
            rescheduleDispatch(camp, d, " outcome " + reply.outcome +
                                            ": " + reply.error);
            return;
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

    Campaign camp;
    camp.inflight.resize(nWorkers, 0);
    camp.shards.resize(req.sopt.workloads.size());
    for (std::size_t i = 0; i < camp.shards.size(); ++i) {
        Shard &shard = camp.shards[i];
        shard.workload = req.sopt.workloads[i];
        shard.sopt = req.sopt;
        shard.sopt.workloads = {shard.workload};
        shard.hash = serve::ResultStore::hashKey(
            serve::canonicalKeyFor(shard.sopt));
        shard.avoid.assign(nWorkers, false);
        camp.pending.push_back(Pending{i});
    }
    {
        std::lock_guard<std::mutex> lock(activeMtx);
        active[jobId] = &camp;
    }

    // Late binding: a pending entry is bound only when a worker has
    // a free slot for this campaign, to the globally least-busy such
    // worker (lowest index on a tie), never to one its shard avoids
    // unless the fleet has no other.
    const unsigned slots = std::max(1u, opt.slotsPerWorker);
    const auto bindWorker = [&](const Shard &shard) {
        std::lock_guard<std::mutex> loadLock(loadMtx);
        std::size_t best = nWorkers;
        for (std::size_t w = 0; w < nWorkers; ++w)
            if (camp.inflight[w] < slots &&
                (nWorkers == 1 || !shard.avoid[w]) &&
                (best == nWorkers || activeOn[w] < activeOn[best]))
                best = w;
        if (best < nWorkers) {
            ++camp.inflight[best];
            ++activeOn[best];
        }
        return best;
    };
    // Seconds until @p d's deadline: a peer fetch's reply, or, for a
    // submitted primary whose shard has no hedge yet, the hedge
    // hedgeSeconds after its submit; none otherwise.
    const auto untilDeadline = [&](const Dispatch &d) {
        if (!d.closed && d.peer != SIZE_MAX)
            return kPeerFetchSeconds - sinceSeconds(d.t0);
        if (opt.hedgeSeconds > 0 && d.submitted && !d.hedge &&
            !d.closed && !camp.shards[d.shardIdx].hedged)
            return opt.hedgeSeconds - sinceSeconds(d.t0);
        return HUGE_VAL;
    };
    std::vector<pollfd> fds;
    while (!camp.done() && !cancel.cancelled()) {
        for (Dispatch &d : camp.live) {
            if (untilDeadline(d) >= 0)
                continue;
            if (d.peer != SIZE_MAX) {
                peerMiss(camp, d); // the peer is silent
                continue;
            }
            // Front of the list, away from the primary's worker: a
            // hedge exists because the shard is already late there.
            camp.shards[d.shardIdx].hedged = true;
            camp.shards[d.shardIdx].avoid[d.w] = true;
            camp.pending.push_front(Pending{d.shardIdx, true});
            camp.hedges.fetch_add(1);
            mHedges->inc();
        }
        // Bind and start pending entries in list order. A start that
        // fails at once frees its slot and appends its shard, which
        // this same pass retries elsewhere.
        for (std::size_t i = 0; i < camp.pending.size() && !camp.done();) {
            const Pending entry = camp.pending[i];
            const auto at = camp.pending.begin() + std::ptrdiff_t(i);
            if (camp.shards[entry.shardIdx].settled) {
                camp.pending.erase(at);
                continue;
            }
            const std::size_t w = bindWorker(camp.shards[entry.shardIdx]);
            if (w == nWorkers) {
                ++i;
                continue;
            }
            camp.pending.erase(at);
            Dispatch &d = camp.live.emplace_back();
            d.shardIdx = entry.shardIdx;
            d.hedge = entry.hedge;
            d.w = w;
            startDispatch(camp, d);
        }
        camp.live.remove_if([](const Dispatch &d) { return d.closed; });
        // Nothing pending or open while unsettled is a stall,
        // reported below.
        if (camp.done() || (camp.pending.empty() && camp.live.empty()))
            break;
        // The one timed wait, on every open dispatch: until the
        // earliest deadline, but at most 50 ms because a CancelToken
        // has no wakeup.
        double waitSeconds = 0.05;
        fds.clear();
        for (const Dispatch &d : camp.live) {
            fds.push_back(pollfd{d.client.fd(), POLLIN, 0});
            waitSeconds = std::min(waitSeconds, untilDeadline(d));
        }
        // EINTR or a failed poll reads as a timeout: the loop turns.
        ::poll(fds.data(), fds.size(),
               int(std::ceil(std::max(0.0, waitSeconds) * 1000.0)));
        std::size_t k = 0;
        for (Dispatch &d : camp.live)
            if (fds[k++].revents != 0 && !d.closed)
                pumpDispatch(camp, d, progress);
    }
    // A cancelled or failed campaign's dispatches close here.
    for (Dispatch &d : camp.live)
        closeDispatch(camp, d);
    {
        std::lock_guard<std::mutex> lock(activeMtx);
        active.erase(jobId);
    }
    if (cancel.cancelled())
        return Json(); // server discards cancelled results
    if (!camp.error.empty())
        throw std::runtime_error(camp.error);
    if (camp.completedCount != camp.shards.size())
        throw std::runtime_error(
            "campaign stalled: " +
            std::to_string(camp.completedCount.load()) + "/" +
            std::to_string(camp.shards.size()) + " shards settled");

    if (attribution) {
        Json shards = Json::array();
        for (const Shard &shard : camp.shards) {
            Json entry = Json::object();
            entry.set("workload", Json::string(shard.workload));
            entry.set("worker", Json::string(shard.worker));
            entry.set("origin", Json::string(shard.origin));
            entry.set("hedged", Json::boolean(shard.hedged));
            shards.push(std::move(entry));
        }
        Json doc = Json::object();
        doc.set("workers",
                Json::number(std::uint64_t(nWorkers)));
        doc.set("hedges", Json::number(camp.hedges.load()));
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
    doc.set("sweep", camp.shards[0].result.at("sweep"));
    Json workloads = Json::array();
    Json jobArray = Json::array();
    for (const Shard &shard : camp.shards) {
        const Json &r = shard.result;
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
    const Campaign &camp = *it->second;
    Json doc = Json::object();
    doc.set("shards_total",
            Json::number(std::uint64_t(camp.shards.size())));
    doc.set("shards_done",
            Json::number(std::uint64_t(camp.completedCount.load())));
    doc.set("dispatched", Json::number(camp.dispatched.load()));
    doc.set("hedges", Json::number(camp.hedges.load()));
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
    // Always 0 (nothing is stolen); kept only because perfbench
    // reads it.
    doc.set("steals", Json::number(std::uint64_t{0}));
    doc.set("hedges", Json::number(mHedges->value()));
    doc.set("hedge_wins", Json::number(mHedgeWins->value()));
    doc.set("peer_fetches", Json::number(mPeerFetches->value()));
    doc.set("peer_fetch_misses",
            Json::number(mPeerFetchMisses->value()));
    doc.set("worker_rejections", Json::number(mRejections->value()));
    return doc;
}

} // namespace killi::fleet

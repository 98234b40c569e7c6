/**
 * @file
 * kfleet: sharded campaign fabric. A Coordinator owns a set of
 * kserved workers — endpoints handed in, or local processes it
 * spawns itself — and implements serve::FleetRunner: a submitted
 * campaign is split into one shard per workload (the shard's cache
 * key is exactly what a direct submit of that workload subset would
 * canonicalize to, so worker result caches and the peer-fetch path
 * compose with normal traffic), the shards wait in one pending list
 * per campaign, and a shard is bound to a worker only when one of
 * that worker's slots is free; each bound dispatch runs on its own
 * thread over the ordinary kserve frame protocol.
 *
 * Three mechanisms keep a heterogeneous fleet busy and the tail
 * latency bounded:
 *
 *  - Late binding: nothing is queued per worker, so no shard waits
 *    behind a busy worker while another idles; among workers with a
 *    free slot the globally least-busy one wins, lowest index first.
 *  - Hedged retries: a shard with no terminal reply after
 *    hedgeSeconds is re-dispatched once to another worker; the
 *    first terminal result wins the shard and the loser is
 *    abandoned — its connection closes, and the worker's own
 *    orphan-cancel sweep reaps the job (kfleet_hedges_total /
 *    kfleet_hedge_wins_total).
 *  - Peer fetch: the coordinator remembers which worker computed
 *    each shard hash; when a later campaign lands the same shard on
 *    a different worker, the bytes are pulled from the computing
 *    worker's content-addressed cache with a "fetch" frame instead
 *    of being recomputed (kfleet_peer_fetches_total). An evicted
 *    entry or an unreachable peer is forgotten after one miss.
 *
 * Shard results merge by concatenating the per-workload "workloads"
 * arrays in campaign order. runEvaluationSweep() pre-sizes its
 * result slots, so a workload's entry is independent of what else
 * ran in the same process — the merged document is bit-identical to
 * a single-process run of the full campaign by construction (CI
 * diffs the two and the committed fig4 golden).
 *
 * Accounting invariant, checked by tools/check_metrics.py at drain:
 * kfleet_shards_dispatched_total == kfleet_shards_completed_total +
 * kfleet_shards_cancelled_total. Every dispatch that reached the
 * "submitted" frame ends in exactly one of the two buckets
 * (hedge losers, worker failures, and transport deaths all count as
 * cancelled). Peer fetches and pre-submit rejections are separate
 * families and never enter the invariant.
 */

#ifndef KILLI_FLEET_COORDINATOR_HH
#define KILLI_FLEET_COORDINATOR_HH

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include <sys/types.h>

#include "common/json.hh"
#include "metrics/metrics.hh"
#include "serve/server.hh"

namespace killi::serve
{
class Client;
}

namespace killi::fleet
{

/** One worker endpoint: a Unix socket path, or (when empty) a TCP
 *  port on 127.0.0.1. */
struct WorkerEndpoint
{
    std::string socketPath;
    std::uint16_t port = 0;
};

struct FleetOptions
{
    /** Explicit worker endpoints (already-running kserved). */
    std::vector<WorkerEndpoint> workers;
    /** Local kserved processes to spawn (appended after the
     *  explicit endpoints). */
    unsigned spawnWorkers = 0;
    /** kserved binary for spawnWorkers. */
    std::string workerBin;
    /** Directory receiving spawned workers' w<i>.sock sockets. */
    std::string spawnDir = ".";
    /** threads= for spawned workers. */
    unsigned workerThreads = 1;
    /** Concurrent dispatches per worker and campaign (its
     *  effective slot count). */
    unsigned slotsPerWorker = 2;
    /** Re-dispatch a shard to a second worker when its primary has
     *  produced no terminal reply after this long; 0 disables
     *  hedging. */
    double hedgeSeconds = 30.0;
    /** Per-worker connect budget (retries with backoff inside). */
    double connectTimeoutSeconds = 10.0;
    /** Registry receiving the kfleet_* families; null makes the
     *  coordinator register them into a registry it owns. */
    metrics::MetricsRegistry *registry = nullptr;
};

class Coordinator
{
  public:
    explicit Coordinator(FleetOptions options);

    /** Shuts down spawned workers (drain, then SIGTERM). */
    ~Coordinator();

    Coordinator(const Coordinator &) = delete;
    Coordinator &operator=(const Coordinator &) = delete;

    /** Spawn local workers (if requested) and ping every endpoint.
     *  False + err when any worker is unreachable. */
    bool start(std::string *err);

    std::size_t workerCount() const { return endpoints.size(); }

    /**
     * The serve::FleetRunner entry point: run @p req as a sharded
     * campaign and return the merged result document. Throws
     * std::runtime_error when a shard exhausts its attempts;
     * returns early (partial doc, discarded by the server) once
     * @p cancel trips. Fills @p attribution with the per-shard
     * worker/origin table that rides the result frame's "fleet"
     * sibling.
     */
    Json runCampaign(std::uint64_t jobId,
                     const serve::SubmitRequest &req,
                     const CancelToken &cancel,
                     const serve::FleetProgressFn &progress,
                     Json *attribution);

    /** In-flight per-job dispatch state for status_reply (null when
     *  @p jobId has no active campaign). */
    Json statusJson(std::uint64_t jobId);

    /** The stats_reply "fleet" member: worker count plus the
     *  lifetime kfleet_* counter values. */
    Json statsJson();

    /** Drain and reap the spawned workers. Idempotent. */
    void shutdownWorkers();

  private:
    struct Shard;
    struct Campaign;

    void registerFleetMetrics();
    bool spawnWorker(std::size_t idx, std::string *err);
    /** Connect to endpoint @p w with the configured retry budget. */
    bool connectWorker(std::size_t w, serve::Client &client,
                       std::string *err);
    /** Drive one dispatch of @p shard on worker @p w to a terminal
     *  state. */
    void runDispatch(Campaign &camp, Shard &shard, std::size_t w,
                     bool isHedge, const CancelToken &cancel,
                     const serve::FleetProgressFn &progress);
    /** Try to serve @p shard from the worker that computed its hash
     *  in an earlier campaign; true when the shard was settled. */
    bool tryPeerFetch(Campaign &camp, Shard &shard, std::size_t w,
                      const serve::FleetProgressFn &progress);
    /** Accept @p result for @p shard; false when another dispatch
     *  settled it first (the caller accounts itself cancelled). */
    bool settleShard(Campaign &camp, Shard &shard, std::size_t w,
                     const char *origin, Json result,
                     const serve::FleetProgressFn &progress);

    FleetOptions opt;
    std::vector<WorkerEndpoint> endpoints;
    /** Names aligned with endpoints ("w0", "w1", ...). */
    std::vector<std::string> workerNames;
    std::vector<pid_t> spawnedPids;
    std::atomic<bool> workersDown{false};

    /** Dispatches currently in flight per worker, across ALL
     *  campaigns — a shard is bound to the globally least-busy
     *  worker with a free slot (lowest index on a tie, so an idle
     *  fleet places shard i on worker i mod N). Taken after
     *  Campaign::mtx, never before. */
    std::mutex loadMtx;
    std::vector<unsigned> activeOn;

    /** Content hash -> worker index that computed it. */
    std::mutex peerMtx;
    std::map<std::string, std::size_t> completedBy;

    /** Active campaigns by front-end job id (statusJson). */
    std::mutex activeMtx;
    std::map<std::uint64_t, Campaign *> active;

    /** The registry the kfleet_* families live in when
     *  FleetOptions::registry is null; statsJson() reads the same
     *  counters either way. */
    std::unique_ptr<metrics::MetricsRegistry> ownRegistry;
    // kfleet_* instruments (never null once constructed).
    metrics::Counter *mCampaigns = nullptr;
    metrics::Counter *mDispatched = nullptr;
    metrics::Counter *mCompleted = nullptr;
    metrics::Counter *mCancelled = nullptr;
    metrics::Counter *mHedges = nullptr;
    metrics::Counter *mHedgeWins = nullptr;
    metrics::Counter *mPeerFetches = nullptr;
    metrics::Counter *mPeerFetchMisses = nullptr;
    metrics::Counter *mRejections = nullptr;
    metrics::Histogram *mShardSeconds = nullptr;
};

} // namespace killi::fleet

#endif // KILLI_FLEET_COORDINATOR_HH

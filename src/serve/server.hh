/**
 * @file
 * kserved: the experiment-serving daemon. One epoll reactor thread
 * owns the listening socket, every client connection, the wake pipe
 * and the /metrics listener. Experiment sweeps run on the
 * JobScheduler's worker threads and communicate back to the reactor
 * only by appending encoded frames to a connection's chunked outbox
 * and tickling the wake pipe; outboxes drain with writev() so queued
 * frames leave in one syscall without being recopied into a flat
 * buffer.
 *
 * Request lifecycle (see SERVING.md for the full protocol grammar):
 * a "submit" frame is validated, canonicalized into a cache key, and
 * answered either straight from the content-addressed result cache
 * (submitted + result{cached:true}, byte-identical to the original
 * reply) or by scheduling a sweep job (submitted, then streamed
 * "progress" frames while it runs, then exactly one terminal
 * "result" frame with outcome done/failed/cancelled/rejected).
 * A "fetch" frame addresses the cache directly by content hash —
 * the peer-transfer path of the fleet fabric (src/fleet).
 *
 * Admission control: beyond the scheduler's bounded queue
 * (queue_full), maxConns bounds concurrent connections — excess
 * accepts are answered with an "overloaded" error frame and closed,
 * so a barrage degrades into explicit backpressure instead of fd
 * exhaustion.
 *
 * Graceful drain — SIGINT/SIGTERM via requestDrain(), or a client
 * "drain" frame — stops accepting connections and submits, cancels
 * everything still queued (outcome "cancelled", error "draining"),
 * lets in-flight sweeps finish, flushes every outbox, and only then
 * exits the reactor loop (unlinking the Unix socket).
 */

#ifndef KILLI_SERVE_SERVER_HH
#define KILLI_SERVE_SERVER_HH

#include <atomic>
#include <chrono>
#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "common/json.hh"
#include "metrics/metrics.hh"
#include "serve/protocol.hh"
#include "serve/scheduler.hh"
#include "serve/store.hh"
#include "serve/submit.hh"

namespace killi
{
class Options;
}

namespace killi::serve
{

/** Progress sink a fleet runner forwards worker progress into. */
using FleetProgressFn = std::function<void(const SweepProgress &)>;

/**
 * Pluggable campaign backend: when set, plain (non-record/replay)
 * submits run through this instead of a local runEvaluationSweep().
 * Must return the complete result document (bench/options/sweep/
 * workloads/campaign) and may fill @p attribution with a per-shard
 * worker/origin breakdown that rides the terminal result frame as
 * the "fleet" sibling. Throw std::runtime_error on unrecoverable
 * failure (becomes outcome "failed"); return promptly once
 * @p cancel trips (becomes outcome "cancelled").
 */
using FleetRunner = std::function<Json(
    std::uint64_t id, const SubmitRequest &req,
    const CancelToken &cancel, const FleetProgressFn &progress,
    Json *attribution)>;

/**
 * The canonical warm-store key of a die: compact JSON of {kind,
 * scenario, lines, line_bits, build}. The build id is part of the
 * key so warm state never survives a rebuild — the same rule as the
 * result cache.
 */
std::string faultMapKey(const ScenarioSpec &scenario,
                        std::size_t numLines, std::size_t lineBits);

/** A SweepOptions::warmFaultSource that shares @p scenario's dies
 *  through @p store: the first sweep point of a die samples it
 *  (single-flight), every other point adopts it uncopied. */
decltype(SweepOptions::warmFaultSource)
warmFaultSource(DieStore &store, const ScenarioSpec &scenario);

struct ServerOptions
{
    /** Unix-domain socket path; preferred. Any stale file at the
     *  path is unlinked before binding. Empty selects TCP. */
    std::string socketPath;
    /** TCP port on 127.0.0.1 when socketPath is empty (0 binds an
     *  ephemeral port — read it back with boundPort()). */
    std::uint16_t port = 0;
    /** Scheduler worker threads (0 = all hardware threads). */
    unsigned threads = 0;
    /** Ready-queue bound; submits beyond it are rejected. */
    std::size_t maxQueue = 64;
    /** Concurrent-connection bound; accepts beyond it are answered
     *  with an "overloaded" error frame and closed. 0 = unbounded. */
    std::size_t maxConns = 0;
    /** Result-cache capacity (entries). */
    std::size_t cacheEntries = 1024;
    /** Warm-state store bound (MiB of resident payload; fault
     *  populations shared across jobs of the same die). 0 disables
     *  warm sharing — every job samples its own die, once. */
    std::size_t warmStoreMb = 256;
    /** Serve plain-HTTP GET /metrics (Prometheus text) on
     *  127.0.0.1:metricsPort (0 binds an ephemeral port — read it
     *  back with metricsBoundPort()). */
    bool metricsHttp = false;
    std::uint16_t metricsPort = 0;
    /** Jobs slower than this get a structured warn() line with their
     *  stage breakdown and cache key; 0 disables. */
    double slowJobSeconds = 0.0;
    /** Testing hook: every admitted job sleeps this long
     *  (cancellably) before running, which injects deterministic
     *  stragglers for the fleet hedging tests. */
    double debugJobDelaySeconds = 0.0;
    /** Fleet backend; see FleetRunner. Unset = run sweeps locally. */
    FleetRunner fleetRunner;
    /** Optional per-job annotation attached to status_reply as the
     *  "fleet" member (null return = omit). */
    std::function<Json(std::uint64_t id)> statusAnnotator;
    /** Optional extra stats block attached to stats_reply as the
     *  "fleet" member. */
    std::function<Json()> statsExtra;
};

class Server
{
  public:
    explicit Server(ServerOptions opt);

    /** Drains and joins; safe if start() was never called. */
    ~Server();

    Server(const Server &) = delete;
    Server &operator=(const Server &) = delete;

    /** Bind, listen, and launch the reactor thread. Returns false
     *  and fills @p err on socket errors. Call at most once. */
    bool start(std::string *err);

    /**
     * Begin a graceful drain. Async-signal-safe (an atomic store
     * plus a write() to the wake pipe), so the daemons call this
     * straight from their SIGINT/SIGTERM handler. Idempotent.
     */
    void requestDrain();

    /** Block until the reactor has fully drained and exited. */
    void waitDone();

    /** requestDrain() + waitDone(), for tests and embedders. */
    void stop();

    /** Resolved TCP port (valid after start() in TCP mode). */
    std::uint16_t boundPort() const { return portBound; }

    /** Resolved /metrics HTTP port (valid after start() when
     *  metricsHttp is on). */
    std::uint16_t metricsBoundPort() const { return metricsPortBound; }

    const std::string &socketPath() const { return opt.socketPath; }

    /** The stats_reply body: scheduler depth, cache hit rate,
     *  per-outcome counters, and p50/p99 submit-to-finish latency. */
    Json statsJson();

    /** The operational metrics plane (also served via the `metrics`
     *  frame and GET /metrics). */
    metrics::MetricsRegistry &metrics() { return registry; }

    /**
     * Install the fleet backend after construction but before
     * start(). Exists because the coordinator registers its
     * kfleet_* families in this server's registry — which only
     * exists once the Server does — so kfleetd builds the Server
     * first, the Coordinator second, and wires the two here.
     */
    void
    setFleetBackend(FleetRunner runner,
                    std::function<Json(std::uint64_t)> status,
                    std::function<Json()> stats)
    {
        opt.fleetRunner = std::move(runner);
        opt.statusAnnotator = std::move(status);
        opt.statsExtra = std::move(stats);
    }

  private:
    /**
     * One client connection. The reactor thread owns fd, decoder,
     * and all socket reads/writes; scheduler workers only append to
     * the outbox (under mtx) and never touch the socket, so a
     * closed connection simply drops late frames instead of racing
     * on fd reuse. The outbox is a deque of encoded frames drained
     * with writev() — frames are moved in and gathered out, never
     * concatenated.
     */
    struct Connection
    {
        int fd = -1;
        FrameDecoder decoder;
        std::mutex mtx;
        /** Encoded frames awaiting the socket; front is partially
         *  written up to outOff. */
        std::deque<std::string> outq;
        std::size_t outOff = 0;
        bool closeAfterFlush = false;
        std::atomic<bool> closed{false};
        /** Collapses redundant worker wakeups: set by the first
         *  enqueuer, cleared by the reactor when it services the
         *  pending list. */
        std::atomic<bool> notified{false};
        /** EPOLLOUT currently armed (reactor thread only). */
        bool outArmed = false;

        void
        enqueue(std::string bytes)
        {
            std::lock_guard<std::mutex> lock(mtx);
            if (!closed.load(std::memory_order_relaxed))
                outq.push_back(std::move(bytes));
        }

        bool
        pendingOut()
        {
            std::lock_guard<std::mutex> lock(mtx);
            return !outq.empty();
        }
    };

    /**
     * Per-job lifecycle span durations (seconds). The six stages
     * tile the submit-to-reply interval: decode (frame parse +
     * validation + canonicalization, I/O thread), queue (admission
     * to execution start), setup (work-lambda preamble), run (the
     * sweep), serialize (result document to text), reply (result
     * delivery, computed as the remainder at finish time) — so the
     * stage sum equals the end-to-end latency by construction.
     * Written by the reactor (decode) before admission and by the
     * one worker thread that runs the job after; never concurrently.
     */
    struct JobSpans
    {
        std::chrono::steady_clock::time_point submit;
        /** End of the serialize stage (reply = finish − this). */
        std::chrono::steady_clock::time_point serializeEnd;
        double decode = 0;
        double queue = 0;
        double setup = 0;
        double run = 0;
        double serialize = 0;
        double reply = 0;

        /** {"decode_s":..., ..., "total_s":...} */
        Json toJson(double totalSeconds) const;
    };

    /** Book-keeping for one admitted (non-cached) job. */
    struct JobRecord
    {
        std::shared_ptr<Connection> conn;
        std::string canonicalKey;
        std::string hash;
        std::chrono::steady_clock::time_point start;
        /** Record/replay jobs bypass the result cache entirely: a
         *  recorded result carries its (run-specific) recording and a
         *  replayed one its verification verdict, neither of which a
         *  plain submit of the same point should ever be served. */
        bool noCache = false;
        std::shared_ptr<JobSpans> spans;
        /** Fleet attribution filled by the runner; rides the
         *  terminal frame as the "fleet" sibling when non-null. */
        std::shared_ptr<Json> fleetInfo;
    };

    /** One /metrics HTTP client (reactor thread only; no locking). */
    struct HttpConn
    {
        int fd = -1;
        std::string in;
        std::string out;
        bool outArmed = false;
    };

    void reactorLoop();
    /** Write one byte into the wake pipe. */
    void wake() const;
    /** (Re)register @p fd with the epoll set for EPOLLIN, plus
     *  EPOLLOUT when @p out; @p op is EPOLL_CTL_ADD or _MOD. */
    bool watch(int op, int fd, bool out = false) const;
    /** Hand @p conn to the reactor for flushing (worker side of the
     *  outbox). Deduplicated via Connection::notified. */
    void notifyConn(const std::shared_ptr<Connection> &conn);
    void acceptClients();
    void readFromClient(const std::shared_ptr<Connection> &conn);
    void flushToClient(const std::shared_ptr<Connection> &conn);
    /** flushToClient + (dis)arm EPOLLOUT to match what is left. */
    void flushAndArm(const std::shared_ptr<Connection> &conn);
    void closeConnection(const std::shared_ptr<Connection> &conn);
    /** Counted outbox append: every protocol frame leaves through
     *  here so frames-sent/outbox-bytes stay exact. */
    void enqueueFrame(const std::shared_ptr<Connection> &conn,
                      std::string bytes);
    void handleFrame(const std::shared_ptr<Connection> &conn,
                     const Json &req);
    void handleSubmit(const std::shared_ptr<Connection> &conn,
                      const Json &req);
    void finishJob(std::uint64_t id, JobState state,
                   const std::string &resultText,
                   const std::string &error);
    void acceptMetricsClients();
    /** Read/answer one /metrics client; returns false once the
     *  connection should be dropped. */
    bool serviceMetricsConn(HttpConn &conn, bool readable, bool error);
    void closeMetricsClients();
    void registerServerMetrics();
    /** Close the listen, metrics, epoll and wake-pipe fds. */
    void closeFds();
    /** Post-join teardown: closeFds(), socket file, cache + warm
     *  store. Runs exactly once. */
    void cleanupAfterJoin();

    ServerOptions opt;
    /** Declared before scheduler/cache/warm: all three register
     *  callback instruments into it at construction. */
    metrics::MetricsRegistry registry;
    JobScheduler scheduler;
    ResultStore cache;
    DieStore warm;

    int listenFd = -1;
    int metricsFd = -1;
    int epollFd = -1;
    int wakeFd[2] = {-1, -1};
    /** Client connections keyed by fd (reactor thread only). */
    std::unordered_map<int, std::shared_ptr<Connection>> connByFd;
    std::unordered_map<int, HttpConn> httpByFd;
    /** Connections with freshly enqueued frames, handed over by
     *  scheduler workers (under pendingMtx). */
    std::mutex pendingMtx;
    std::vector<std::shared_ptr<Connection>> pending;
    std::thread reactor;
    std::uint16_t portBound = 0;
    std::uint16_t metricsPortBound = 0;
    std::atomic<bool> started{false};
    std::atomic<bool> drainFlag{false};
    std::atomic<bool> cleanedUp{false};

    std::mutex jobsMtx;
    std::map<std::uint64_t, JobRecord> jobs;
    std::atomic<std::uint64_t> nextJobId{1};

    std::chrono::steady_clock::time_point bootTime;
    std::atomic<std::int64_t> activeConns{0};

    // Server-plane instruments (registered in registerServerMetrics;
    // never null after construction).
    metrics::Counter *mConnections = nullptr;
    metrics::Counter *mConnsRejected = nullptr;
    metrics::Counter *mFramesIn = nullptr;
    metrics::Counter *mFramesOut = nullptr;
    metrics::Counter *mProtocolErrors = nullptr;
    metrics::Counter *mOutboxBytes = nullptr;
    metrics::Counter *mHttpRequests = nullptr;
    metrics::Counter *mWakeups = nullptr;
    metrics::Counter *mFetchHits = nullptr;
    metrics::Counter *mFetchMisses = nullptr;
    metrics::Counter *mSlowJobs = nullptr;
    metrics::Counter *mJobsDone = nullptr;
    metrics::Counter *mJobsFailed = nullptr;
    metrics::Counter *mJobsCancelled = nullptr;
    metrics::Counter *mJobsRejected = nullptr;
    /** End-to-end submit-to-finish latency (cache hits observe 0 s,
     *  same convention as the stats_reply ever had). */
    metrics::Histogram *mJobSeconds = nullptr;
    /** kserved_job_stage_seconds{stage=...}, indexed like
     *  kStageNames. */
    metrics::Histogram *mStageSeconds[6] = {};
};

/**
 * Declare the front-end knobs kserved and kfleetd share (socket,
 * port, threads, max-conns, max-queue, cache-entries, metrics-port,
 * slow-job-ms) on @p opts, with @p defaults' values as defaults.
 */
void declareServerOptions(Options &opts, const ServerOptions &defaults);

/** Extract the shared knobs from parsed @p opts; the rest of the
 *  ServerOptions keeps its defaults. */
ServerOptions serverOptions(const Options &opts);

/**
 * A daemon's whole serving life: start @p server (fatal() on error),
 * route SIGINT/SIGTERM to requestDrain(), print the listen and
 * metrics banners as @p name (the listen line ends in @p note), and
 * block until the drain completes.
 */
void serveUntilDrained(Server &server, const char *name,
                       const std::string &note = "");

} // namespace killi::serve

#endif // KILLI_SERVE_SERVER_HH

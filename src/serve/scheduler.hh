/**
 * @file
 * Cancellable, prioritized job scheduler of the serving daemon,
 * layered over the runner's ThreadPool.
 *
 * The pool itself is FIFO and knows nothing about priorities; the
 * scheduler keeps its own ordered ready queue and submits one
 * opaque "run the best queued job" task per accepted job, so
 * whichever worker becomes free next always picks the
 * highest-priority (then oldest) job — strict priority with FIFO
 * tie-break, without reordering inside the pool.
 *
 * Admission control is explicit: the ready queue is bounded, and a
 * submit against a full queue (or a draining scheduler) is rejected
 * immediately with a machine-readable code — the server turns that
 * into a backpressure reply instead of queueing unboundedly.
 *
 * Cancellation is cooperative (see CancelToken): cancelling a
 * queued job removes it before it ever runs; cancelling a running
 * job trips its token, which the sweep polls between points.
 * Drain = stop admitting + cancel everything still queued (code
 * "draining") + let in-flight jobs finish.
 */

#ifndef KILLI_SERVE_SCHEDULER_HH
#define KILLI_SERVE_SCHEDULER_HH

#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <string>

#include "common/json.hh"
#include "metrics/metrics.hh"
#include "runner/thread_pool.hh"

namespace killi::serve
{

enum class JobState
{
    Queued,
    Running,
    Done,      //!< work returned normally
    Failed,    //!< work threw
    Cancelled  //!< cancelled while queued, or token tripped mid-run
};

const char *jobStateName(JobState state);

/**
 * The job body. Runs on a pool worker; must poll @p cancel at
 * reasonable intervals and wind down early when it trips. Returns
 * the serialized result text delivered to onFinish (ignored when
 * the token tripped — the job is reported Cancelled).
 */
using JobWork = std::function<std::string(const CancelToken &cancel)>;

/**
 * Terminal notification, fired exactly once per accepted job — from
 * a worker thread on completion, or from the cancel()/beginDrain()
 * caller for jobs that never ran. @p resultText is non-empty only
 * for Done; @p error carries the exception text (Failed) or the
 * cancellation reason ("cancelled" / "draining"). Fired *before* the
 * job is accounted finished, so once idle() reports true every
 * notification has been delivered (state() may briefly still say
 * Running while the callback runs).
 */
using JobFinish = std::function<void(
    std::uint64_t id, JobState state, const std::string &resultText,
    const std::string &error)>;

struct SchedulerStats
{
    std::size_t queued = 0;
    std::size_t running = 0;
    std::size_t maxQueue = 0;
    std::size_t peakQueued = 0;
    std::uint64_t submitted = 0;
    std::uint64_t rejected = 0;
    std::uint64_t done = 0;
    std::uint64_t failed = 0;
    std::uint64_t cancelled = 0;

    Json toJson() const;
};

class JobScheduler
{
  public:
    /**
     * @param threads pool workers (0 = ThreadPool::defaultThreads())
     * @param maxQueue ready-queue bound; submits beyond it are
     *        rejected with "queue_full"
     * @param reg optional metrics registry; when set, the scheduler
     *        registers queue-depth/running gauges, admission and
     *        outcome counters, and per-priority
     *        kserved_queue_wait_seconds histograms (see SERVING.md,
     *        "Metrics & ktop"). Must outlive the scheduler.
     */
    JobScheduler(unsigned threads, std::size_t maxQueue,
                 metrics::MetricsRegistry *reg = nullptr);

    /** Drains (cancelling queued jobs) and joins the workers. */
    ~JobScheduler();

    JobScheduler(const JobScheduler &) = delete;
    JobScheduler &operator=(const JobScheduler &) = delete;

    /**
     * Admit job @p id (caller-allocated, unique). Returns false and
     * sets @p errCode to "queue_full" or "draining" when rejected;
     * onFinish is NOT fired for rejected jobs. Higher @p priority
     * runs first; ties run in submission order.
     */
    bool submit(std::uint64_t id, int priority, JobWork work,
                JobFinish onFinish, std::string *errCode);

    /**
     * Cancel a job. Queued: removed and reported Cancelled
     * ("cancelled") before return. Running: its token trips and the
     * job reports Cancelled when the body yields. Returns false for
     * unknown/finished ids.
     */
    bool cancel(std::uint64_t id);

    /** Current state; @p found false for ids never admitted or
     *  aged out of the finished-job history. */
    JobState state(std::uint64_t id, bool *found = nullptr) const;

    /**
     * Non-blocking drain trigger: reject future submits, cancel all
     * queued jobs with code "draining" (their onFinish fires from
     * this call), leave in-flight jobs running. Idempotent.
     */
    void beginDrain();

    /** True once beginDrain() ran. */
    bool draining() const;

    /** No job queued or running. */
    bool idle() const;

    /** beginDrain(), then block until in-flight jobs finish. */
    void drain();

    SchedulerStats stats() const;

  private:
    struct Entry
    {
        std::uint64_t id = 0;
        JobState state = JobState::Queued;
        CancelToken cancel;
        JobWork work;
        JobFinish onFinish;
        /** Ready-queue key: priority negated so map order is
         *  highest-first, then submission sequence. */
        std::pair<int, std::uint64_t> queueKey{0, 0};
        int priority = 0;
        std::chrono::steady_clock::time_point enqueued;
    };

    void runNext();
    void finishLocked(std::unique_lock<std::mutex> &lock,
                      const std::shared_ptr<Entry> &entry,
                      JobState state, const std::string &resultText,
                      const std::string &error);

    mutable std::mutex mtx;
    std::condition_variable idleCv;
    std::map<std::pair<int, std::uint64_t>, std::shared_ptr<Entry>>
        ready;
    std::map<std::uint64_t, std::shared_ptr<Entry>> active;
    /** Terminal states of finished jobs, bounded to the most recent
     *  kFinishedHistory ids for the status endpoint. */
    std::map<std::uint64_t, JobState> finished;
    static constexpr std::size_t kFinishedHistory = 4096;

    std::size_t maxQueue;
    std::uint64_t nextSeq = 0;
    std::size_t runningCount = 0;
    std::size_t peakQueued = 0;
    std::uint64_t submittedCount = 0;
    std::uint64_t rejectedCount = 0;
    std::uint64_t doneCount = 0;
    std::uint64_t failedCount = 0;
    std::uint64_t cancelledCount = 0;
    bool drainRequested = false;

    /** kserved_queue_wait_seconds{priority=low|normal|high}; null
     *  without a registry. */
    metrics::Histogram *waitHist[3] = {nullptr, nullptr, nullptr};

    ThreadPool pool;
};

} // namespace killi::serve

#endif // KILLI_SERVE_SCHEDULER_HH

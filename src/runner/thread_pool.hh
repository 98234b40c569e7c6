/**
 * @file
 * Fixed-size worker-thread pool for the experiment runner and the
 * serving daemon's job scheduler.
 *
 * Deliberately minimal: submit() enqueues a task, wait() blocks until
 * every submitted task has finished, drain() additionally closes the
 * intake so a long-lived owner (kserved) can shut down gracefully.
 * Tasks must be self-contained — the pool provides no result channel
 * and no ordering guarantee between tasks; campaigns that need
 * deterministic output write into pre-allocated, index-addressed
 * slots instead (see runner.hh). Cancellation is cooperative and
 * lives *outside* the pool: a CancelToken is shared between the
 * submitter and the task body, which polls it at safe points
 * (the pool never interrupts a running task).
 */

#ifndef KILLI_RUNNER_THREAD_POOL_HH
#define KILLI_RUNNER_THREAD_POOL_HH

#include <atomic>
#include <condition_variable>
#include <deque>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace killi
{

/**
 * Cooperative cancellation flag shared between a work submitter and
 * the work itself. cancel() is a request, not an interrupt: tasks
 * (and the ExperimentRunner) poll cancelled() at well-defined points
 * — before starting a queued job, between sweep points — and wind
 * down cleanly. Safe to share across threads; cancel() is sticky
 * until reset().
 */
class CancelToken
{
  public:
    CancelToken() = default;

    CancelToken(const CancelToken &) = delete;
    CancelToken &operator=(const CancelToken &) = delete;

    /** Request cancellation; idempotent, safe from any thread. */
    void cancel() { flag.store(true, std::memory_order_relaxed); }

    bool cancelled() const
    {
        return flag.load(std::memory_order_relaxed);
    }

    /** Re-arm the token (only safe once no work references it). */
    void reset() { flag.store(false, std::memory_order_relaxed); }

  private:
    std::atomic<bool> flag{false};
};

class ThreadPool
{
  public:
    /** Spawn @p threads workers; at least one. */
    explicit ThreadPool(unsigned threads);

    /** Drains outstanding work (wait()), then joins the workers. */
    ~ThreadPool();

    ThreadPool(const ThreadPool &) = delete;
    ThreadPool &operator=(const ThreadPool &) = delete;

    /**
     * Enqueue @p task for execution on some worker. Returns false
     * (and drops the task) once drain() has closed the intake.
     */
    bool submit(std::function<void()> task);

    /** Block until all submitted tasks have completed. */
    void wait();

    /**
     * Stop accepting new work, then block until every already
     * accepted task (queued and in-flight) has completed. Subsequent
     * submit() calls return false; the workers stay alive (the
     * destructor joins them), so stats/teardown code can still run.
     */
    void drain();

    /** True once drain() has closed the intake. */
    bool draining() const
    {
        return drained.load(std::memory_order_relaxed);
    }

    /** hardware_concurrency with a sane floor of 1. */
    static unsigned defaultThreads();

  private:
    void workerLoop();

    std::mutex mtx;
    std::condition_variable workAvailable;
    std::condition_variable allIdle;
    std::deque<std::function<void()>> queue;
    std::vector<std::thread> workers;
    unsigned active = 0;
    bool stopping = false;
    std::atomic<bool> drained{false};
};

} // namespace killi

#endif // KILLI_RUNNER_THREAD_POOL_HH

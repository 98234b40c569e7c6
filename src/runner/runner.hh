/**
 * @file
 * Parallel experiment-campaign runner.
 *
 * A campaign is a list of named, independent jobs (sweep points:
 * workload × scheme × voltage/seed). The runner executes them on a
 * fixed-size thread pool with bounded per-job retries, so one flaky
 * point is retried and, if it keeps failing, recorded and *skipped*
 * rather than aborting the whole campaign.
 *
 * Determinism contract: the runner imposes no ordering — a job must
 * be a pure function of its inputs and write its result only into
 * state it exclusively owns (e.g. a pre-allocated, index-addressed
 * slot). Jobs built that way produce bit-identical campaign results
 * at any jobs=N, which runner_test pins for the evaluation sweep.
 *
 * Failure semantics: a job "fails" by throwing a std::exception (or
 * anything else). panic()/fatal() still terminate the process — they
 * flag bugs and unusable configurations, not per-point flakiness.
 */

#ifndef KILLI_RUNNER_RUNNER_HH
#define KILLI_RUNNER_RUNNER_HH

#include <functional>
#include <string>
#include <vector>

#include "common/json.hh"
#include "runner/thread_pool.hh"

namespace killi
{

struct RunnerOptions
{
    /** Worker threads; 0 selects ThreadPool::defaultThreads(), 1
     *  runs the campaign inline on the calling thread. */
    unsigned jobs = 1;
    /** Extra attempts after a failure before the job is recorded as
     *  Failed (retries=1 means up to two attempts). */
    unsigned retries = 1;
    /** Per-job progress lines, routed through the thread-safe
     *  logger (warn/inform) so concurrent workers never interleave
     *  characters mid-line. */
    bool verbose = true;
    /**
     * Optional cooperative cancellation (not owned; may be null).
     * Once cancelled, jobs that have not started are recorded as
     * Skipped — in-flight jobs finish normally, mirroring the
     * serving daemon's drain semantics. The token is polled between
     * jobs only; a job body wanting finer-grained cancellation can
     * capture the same token itself.
     */
    const CancelToken *cancel = nullptr;
};

enum class JobOutcome
{
    Done,    //!< completed (possibly after retries)
    Failed,  //!< exhausted its retry budget
    Skipped  //!< never ran (the campaign was cancelled first)
};

const char *jobOutcomeName(JobOutcome outcome);

/** One independent unit of work. */
struct Job
{
    std::string name;
    std::function<void()> work;
};

/** Per-job execution record, index-aligned with the submitted list. */
struct JobReport
{
    std::string name;
    JobOutcome outcome = JobOutcome::Skipped;
    unsigned attempts = 0;
    std::string error;   //!< what() of the last failure, if any
    double seconds = 0;  //!< wall time across all attempts
};

struct CampaignReport
{
    std::vector<JobReport> jobs;
    double seconds = 0;     //!< campaign wall time
    unsigned threads = 1;   //!< worker threads actually used

    bool allOk() const;
    std::size_t failures() const;
    std::size_t skipped() const;

    /** Structured form for results files. */
    Json toJson() const;
    /** One warn() line per non-Done job; silent when allOk(). */
    void warnOnFailures() const;
};

class ExperimentRunner
{
  public:
    explicit ExperimentRunner(RunnerOptions options = {});

    /**
     * Execute every job and return the index-aligned report. Blocks
     * until every job has run, or been skipped because the
     * campaign was cancelled.
     */
    CampaignReport run(const std::vector<Job> &jobs);

  private:
    JobReport runOne(const Job &job) const;

    RunnerOptions opt;
};

} // namespace killi

#endif // KILLI_RUNNER_RUNNER_HH

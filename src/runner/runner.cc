#include "runner/runner.hh"

#include <chrono>
#include <cstdio>
#include <exception>

#include "common/log.hh"
#include "runner/thread_pool.hh"

namespace killi
{

const char *
jobOutcomeName(JobOutcome outcome)
{
    switch (outcome) {
      case JobOutcome::Done: return "done";
      case JobOutcome::Failed: return "failed";
      case JobOutcome::Skipped: return "skipped";
    }
    return "unknown";
}

bool
CampaignReport::allOk() const
{
    for (const JobReport &job : jobs) {
        if (job.outcome != JobOutcome::Done)
            return false;
    }
    return true;
}

std::size_t
CampaignReport::failures() const
{
    std::size_t n = 0;
    for (const JobReport &job : jobs)
        n += job.outcome == JobOutcome::Failed;
    return n;
}

std::size_t
CampaignReport::skipped() const
{
    std::size_t n = 0;
    for (const JobReport &job : jobs)
        n += job.outcome == JobOutcome::Skipped;
    return n;
}

Json
CampaignReport::toJson() const
{
    Json jobArray = Json::array();
    for (const JobReport &job : jobs) {
        Json entry = Json::object();
        entry.set("name", Json::string(job.name));
        entry.set("outcome", Json::string(jobOutcomeName(job.outcome)));
        entry.set("attempts", Json::number(std::int64_t(job.attempts)));
        entry.set("seconds", Json::number(job.seconds));
        if (!job.error.empty())
            entry.set("error", Json::string(job.error));
        jobArray.push(std::move(entry));
    }
    Json doc = Json::object();
    doc.set("threads", Json::number(std::int64_t(threads)));
    doc.set("seconds", Json::number(seconds));
    doc.set("jobs", std::move(jobArray));
    return doc;
}

void
CampaignReport::warnOnFailures() const
{
    for (const JobReport &job : jobs) {
        if (job.outcome == JobOutcome::Failed) {
            warn("runner: job '%s' failed after %u attempt(s): %s",
                 job.name.c_str(), job.attempts, job.error.c_str());
        } else if (job.outcome == JobOutcome::Skipped) {
            warn("runner: job '%s' skipped (cancelled)",
                 job.name.c_str());
        }
    }
}

ExperimentRunner::ExperimentRunner(RunnerOptions options)
    : opt(options)
{
}

JobReport
ExperimentRunner::runOne(const Job &job) const
{
    JobReport report;
    report.name = job.name;
    const auto start = std::chrono::steady_clock::now();
    for (unsigned attempt = 0; attempt <= opt.retries; ++attempt) {
        ++report.attempts;
        try {
            job.work();
            report.outcome = JobOutcome::Done;
            break;
        } catch (const std::exception &e) {
            report.error = e.what();
        } catch (...) {
            report.error = "unknown exception";
        }
        report.outcome = JobOutcome::Failed;
        if (opt.verbose && attempt < opt.retries) {
            // warn() rather than raw stderr so an installed LogSink
            // (tests, capture harnesses) sees retry chatter too.
            warn("runner: %s failed (%s), retrying (%u/%u)",
                 job.name.c_str(), report.error.c_str(), attempt + 1,
                 opt.retries);
        }
    }
    report.seconds = std::chrono::duration<double>(
                         std::chrono::steady_clock::now() - start)
                         .count();
    return report;
}

CampaignReport
ExperimentRunner::run(const std::vector<Job> &jobs)
{
    CampaignReport campaign;
    campaign.jobs.resize(jobs.size());
    const unsigned threads = opt.jobs == 0
        ? ThreadPool::defaultThreads()
        : opt.jobs;
    campaign.threads = threads;
    const auto start = std::chrono::steady_clock::now();

    // Once cancelled, jobs not yet started stay Skipped;
    // already-running jobs complete normally.
    const auto execute = [&](std::size_t index) {
        if (opt.cancel && opt.cancel->cancelled()) {
            campaign.jobs[index].name = jobs[index].name;
            return; // remains Skipped
        }
        campaign.jobs[index] = runOne(jobs[index]);
    };

    if (threads <= 1) {
        for (std::size_t index = 0; index < jobs.size(); ++index)
            execute(index);
    } else {
        ThreadPool pool(threads);
        for (std::size_t index = 0; index < jobs.size(); ++index)
            pool.submit([&execute, index] { execute(index); });
        pool.wait();
    }

    campaign.seconds = std::chrono::duration<double>(
                           std::chrono::steady_clock::now() - start)
                           .count();
    return campaign;
}

} // namespace killi

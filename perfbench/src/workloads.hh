/**
 * @file
 * The benchmark's workloads. Each runs set-up, then a timed phase of
 * about RunConfig::seconds, then its output checks, and returns its
 * metrics. With RunConfig::trace the timed phase alternates untraced
 * and traced work and the per-layer metrics are filled instead of the
 * end-to-end ones. README.md describes each workload and metric.
 */

#ifndef PERFBENCH_WORKLOADS_HH
#define PERFBENCH_WORKLOADS_HH

#include <cstdint>
#include <string>
#include <vector>

#include "summary.hh"

namespace perfbench
{

struct RunConfig
{
    std::uint64_t seed = 1;
    double seconds = 10.0;
    bool trace = false;
    /** The kserved and kfleetd binaries. */
    std::string kservedBin;
    std::string kfleetdBin;
    /** Scratch directory for sockets, daemon logs, check files. */
    std::string runDir;
    /** Worker threads / client connections cap (nproc). */
    unsigned threads = 1;
};

struct WorkloadResult
{
    MetricSet metrics;
    std::uint64_t ops = 0;
    std::uint64_t opsFailed = 0;
    /** One line per failed op, the first kMaxFailureLines kept. */
    std::vector<std::string> failures;

    static constexpr std::size_t kMaxFailureLines = 20;

    /** Count one failed op (already counted in ops). */
    void fail(const std::string &why)
    {
        ++opsFailed;
        if (failures.size() < kMaxFailureLines)
            failures.push_back(why);
    }
};

/** Set-up repetitions; setup_s is their median. */
inline constexpr int kSetupReps = 5;

WorkloadResult runFig4Sweep(const RunConfig &cfg);
WorkloadResult runVminSweep(const RunConfig &cfg);
WorkloadResult runServeMix(const RunConfig &cfg);
WorkloadResult runFleetCampaign(const RunConfig &cfg);

} // namespace perfbench

#endif // PERFBENCH_WORKLOADS_HH

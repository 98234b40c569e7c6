/**
 * @file
 * Sample summaries and the named-metric record every workload fills.
 *
 * A percentile is reported only when at least kMinBeyond samples lie
 * beyond it (so a p90 needs 100 samples, a p50 20); otherwise it is
 * null, and the sample count travels with it either way.
 */

#ifndef PERFBENCH_SUMMARY_HH
#define PERFBENCH_SUMMARY_HH

#include <chrono>
#include <cstddef>
#include <optional>
#include <string>
#include <vector>

#include "common/json.hh"

namespace perfbench
{

using Clock = std::chrono::steady_clock;

/** Seconds elapsed since @p t0. */
double secondsSince(Clock::time_point t0);

/** Nanoseconds between two time points. */
std::uint64_t nsBetween(Clock::time_point t0, Clock::time_point t1);

/** Samples that must lie beyond a percentile for it to be reported. */
inline constexpr std::size_t kMinBeyond = 10;

/** Samples beyond the nearest-rank @p p percentile of @p n samples. */
std::size_t samplesBeyond(std::size_t n, double p);

/**
 * Nearest-rank percentile (p in (0, 1)) of @p samples, or nullopt
 * when fewer than kMinBeyond samples lie beyond it.
 */
std::optional<double> percentile(std::vector<double> samples, double p);

/** Plain median (for small repeated measurements such as set-up). */
double median(std::vector<double> samples);

/** One named measurement. A null value carries its reason in note. */
struct Metric
{
    std::string name;
    std::optional<double> value;
    std::string unit;
    /** Samples behind a percentile or median (0 = a single value). */
    std::size_t samples = 0;
    std::string note;
};

/**
 * Insertion-ordered set of metrics. Names are unique and must be in
 * the catalog (catalog.hh), which supplies each one's unit.
 */
class MetricSet
{
  public:
    void set(const std::string &name, double value,
             std::size_t samples = 0, const std::string &note = "");

    void unavailable(const std::string &name, const std::string &reason);

    /** Record the @p p percentile of @p samples under @p name. */
    void percentile(const std::string &name,
                    const std::vector<double> &samples, double p);

    bool contains(const std::string &name) const;
    const Metric *find(const std::string &name) const;

    /** [{name, value|null, unit, samples, note?}, ...] */
    killi::Json toJson() const;

  private:
    Metric &slot(const std::string &name);

    std::vector<Metric> metrics;
};

} // namespace perfbench

#endif // PERFBENCH_SUMMARY_HH

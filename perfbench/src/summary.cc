#include "summary.hh"

#include <algorithm>
#include <cmath>

#include "catalog.hh"
#include "common/log.hh"

namespace perfbench
{

double
secondsSince(Clock::time_point t0)
{
    return std::chrono::duration<double>(Clock::now() - t0).count();
}

std::uint64_t
nsBetween(Clock::time_point t0, Clock::time_point t1)
{
    return std::uint64_t(
        std::chrono::duration_cast<std::chrono::nanoseconds>(t1 - t0)
            .count());
}

namespace
{

/** 1-based nearest rank of the @p p percentile among @p n samples. */
std::size_t
nearestRank(std::size_t n, double p)
{
    const auto rank = std::size_t(std::ceil(p * double(n) - 1e-9));
    return std::clamp<std::size_t>(rank, 1, n);
}

} // namespace

std::size_t
samplesBeyond(std::size_t n, double p)
{
    return n == 0 ? 0 : n - nearestRank(n, p);
}

std::optional<double>
percentile(std::vector<double> samples, double p)
{
    if (samplesBeyond(samples.size(), p) < kMinBeyond)
        return std::nullopt;
    std::sort(samples.begin(), samples.end());
    return samples[nearestRank(samples.size(), p) - 1];
}

double
median(std::vector<double> samples)
{
    if (samples.empty())
        return 0.0;
    std::sort(samples.begin(), samples.end());
    const std::size_t n = samples.size();
    return n % 2 ? samples[n / 2]
                 : 0.5 * (samples[n / 2 - 1] + samples[n / 2]);
}

Metric &
MetricSet::slot(const std::string &name)
{
    if (contains(name))
        killi::panic("perfbench: metric '%s' recorded twice",
                     name.c_str());
    const std::string unit = catalogUnit(name);
    if (unit.empty())
        killi::panic("perfbench: metric '%s' is not in the catalog",
                     name.c_str());
    metrics.push_back(Metric{name, std::nullopt, unit, 0, ""});
    return metrics.back();
}

void
MetricSet::set(const std::string &name, double value,
               std::size_t samples, const std::string &note)
{
    Metric &m = slot(name);
    m.value = value;
    m.samples = samples;
    m.note = note;
}

void
MetricSet::unavailable(const std::string &name,
                       const std::string &reason)
{
    Metric &m = slot(name);
    m.note = reason;
}

void
MetricSet::percentile(const std::string &name,
                      const std::vector<double> &samples, double p)
{
    Metric &m = slot(name);
    m.samples = samples.size();
    m.value = perfbench::percentile(samples, p);
    if (!m.value)
        m.note = "fewer than " + std::to_string(kMinBeyond) +
                 " samples beyond p" +
                 std::to_string(int(std::lround(p * 100)));
}

bool
MetricSet::contains(const std::string &name) const
{
    return find(name) != nullptr;
}

const Metric *
MetricSet::find(const std::string &name) const
{
    for (const Metric &m : metrics) {
        if (m.name == name)
            return &m;
    }
    return nullptr;
}

killi::Json
MetricSet::toJson() const
{
    using killi::Json;
    Json arr = Json::array();
    for (const Metric &m : metrics) {
        Json o = Json::object();
        o.set("name", Json::string(m.name));
        o.set("value", m.value && std::isfinite(*m.value)
                           ? Json::number(*m.value)
                           : Json::null());
        o.set("unit", Json::string(m.unit));
        o.set("samples", Json::number(std::uint64_t(m.samples)));
        if (!m.note.empty())
            o.set("note", Json::string(m.note));
        arr.push(std::move(o));
    }
    return arr;
}

} // namespace perfbench

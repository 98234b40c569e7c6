#include "trace/timeseries.hh"

#include "common/log.hh"

namespace killi
{

void
StatTimeseries::addSource(std::string name, Source fn)
{
    if (!ticks.empty())
        panic("StatTimeseries: addSource('%s') after sampling began",
              name.c_str());
    for (const std::string &existing : names) {
        if (existing == name)
            panic("StatTimeseries: duplicate column '%s'", name.c_str());
    }
    names.push_back(std::move(name));
    sources.push_back(std::move(fn));
}

void
StatTimeseries::sample(Tick now)
{
    std::vector<double> row;
    row.reserve(sources.size());
    for (const Source &fn : sources)
        row.push_back(fn ? fn() : 0.0);
    if (onSample)
        onSample(now, row);
    if (!ticks.empty() && ticks.back() == now) {
        rows.back() = std::move(row);
        return;
    }
    ticks.push_back(now);
    rows.push_back(std::move(row));
}

void
StatTimeseries::setOnSample(
    std::function<void(Tick, const std::vector<double> &)> fn)
{
    onSample = std::move(fn);
}

void
StatTimeseries::clearSamples()
{
    ticks.clear();
    rows.clear();
}

Json
StatTimeseries::toJson() const
{
    Json doc = Json::object();
    doc.set("interval", Json::number(std::uint64_t(interval_)));
    Json cols = Json::array();
    cols.push(Json::string("tick"));
    for (const std::string &name : names)
        cols.push(Json::string(name));
    doc.set("columns", std::move(cols));
    Json sampleArr = Json::array();
    for (std::size_t r = 0; r < ticks.size(); ++r) {
        Json row = Json::array();
        row.push(Json::number(std::uint64_t(ticks[r])));
        for (double v : rows[r])
            row.push(Json::number(v));
        sampleArr.push(std::move(row));
    }
    doc.set("samples", std::move(sampleArr));
    return doc;
}

} // namespace killi

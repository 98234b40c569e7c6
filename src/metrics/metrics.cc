#include "metrics/metrics.hh"

#include <algorithm>
#include <cctype>
#include <cmath>
#include <cstdio>
#include <limits>
#include <sstream>

#include "common/log.hh"

namespace killi::metrics
{

namespace
{

bool
validMetricName(const std::string &name)
{
    if (name.empty())
        return false;
    for (std::size_t i = 0; i < name.size(); ++i) {
        const char c = name[i];
        const bool alpha = std::isalpha(static_cast<unsigned char>(c));
        const bool digit = std::isdigit(static_cast<unsigned char>(c));
        if (!(alpha || c == '_' || c == ':' || (digit && i > 0)))
            return false;
    }
    return true;
}

bool
validLabelName(const std::string &name)
{
    if (name.empty())
        return false;
    for (std::size_t i = 0; i < name.size(); ++i) {
        const char c = name[i];
        const bool alpha = std::isalpha(static_cast<unsigned char>(c));
        const bool digit = std::isdigit(static_cast<unsigned char>(c));
        if (!(alpha || c == '_' || (digit && i > 0)))
            return false;
    }
    return true;
}

/** Canonical "{a=\"x\",b=\"y\"}" rendering; "" for no labels. The
 *  labels must already be sorted by key. */
std::string
labelString(const Labels &labels)
{
    if (labels.empty())
        return "";
    std::string out = "{";
    for (std::size_t i = 0; i < labels.size(); ++i) {
        if (i)
            out += ',';
        out += labels[i].first;
        out += "=\"";
        out += escapeLabelValue(labels[i].second);
        out += '"';
    }
    out += '}';
    return out;
}

/** Splice an le="..." pair into an existing canonical label string. */
std::string
labelStringWithLe(const Labels &labels, const std::string &le)
{
    std::string out = "{";
    for (const auto &[key, value] : labels) {
        out += key;
        out += "=\"";
        out += escapeLabelValue(value);
        out += "\",";
    }
    out += "le=\"";
    out += le;
    out += "\"}";
    return out;
}

const char *
kindName(bool counterLike, bool histogram)
{
    return histogram ? "histogram" : counterLike ? "counter" : "gauge";
}

} // namespace

std::string
escapeHelp(const std::string &s)
{
    std::string out;
    out.reserve(s.size());
    for (const char c : s) {
        if (c == '\\')
            out += "\\\\";
        else if (c == '\n')
            out += "\\n";
        else
            out += c;
    }
    return out;
}

std::string
escapeLabelValue(const std::string &s)
{
    std::string out;
    out.reserve(s.size());
    for (const char c : s) {
        if (c == '\\')
            out += "\\\\";
        else if (c == '"')
            out += "\\\"";
        else if (c == '\n')
            out += "\\n";
        else
            out += c;
    }
    return out;
}

std::string
formatValue(double v)
{
    if (std::isnan(v))
        return "NaN";
    if (std::isinf(v))
        return v > 0 ? "+Inf" : "-Inf";
    if (v == std::floor(v) && std::fabs(v) < 1e15) {
        char buf[32];
        std::snprintf(buf, sizeof(buf), "%.0f", v);
        return buf;
    }
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%.17g", v);
    // Trim to the shortest representation that round-trips.
    for (int prec = 1; prec < 17; ++prec) {
        char shorter[64];
        std::snprintf(shorter, sizeof(shorter), "%.*g", prec, v);
        double back = 0;
        if (std::sscanf(shorter, "%lf", &back) == 1 && back == v)
            return shorter;
    }
    return buf;
}

// ----------------------------------------------------------------
// Histogram
// ----------------------------------------------------------------

Histogram::Histogram(const HistogramSpec &spec)
    : maxVal(-std::numeric_limits<double>::infinity())
{
    if (!(spec.lo > 0) || !(spec.growth > 1) || spec.buckets == 0) {
        panic("Histogram: spec must have lo > 0, growth > 1, and at "
              "least one bucket (lo=%g growth=%g buckets=%zu)",
              spec.lo, spec.growth, spec.buckets);
    }
    upper.reserve(spec.buckets);
    double bound = spec.lo;
    for (std::size_t k = 0; k < spec.buckets; ++k) {
        upper.push_back(bound);
        bound *= spec.growth;
    }
    // +1 for the +Inf overflow bucket.
    counts = std::vector<std::atomic<std::uint64_t>>(spec.buckets + 1);
}

void
Histogram::observe(double v)
{
    total.fetch_add(1, std::memory_order_relaxed);
    if (std::isnan(v)) {
        // Counted but quarantined: a NaN sample lands in +Inf and
        // stays out of sum/max so the mean survives.
        counts.back().fetch_add(1, std::memory_order_relaxed);
        return;
    }
    const auto it = std::lower_bound(upper.begin(), upper.end(), v);
    const std::size_t idx = std::size_t(it - upper.begin());
    counts[idx].fetch_add(1, std::memory_order_relaxed);
    sumVal.fetch_add(v, std::memory_order_relaxed);
    double cur = maxVal.load(std::memory_order_relaxed);
    while (v > cur &&
           !maxVal.compare_exchange_weak(cur, v,
                                         std::memory_order_relaxed)) {
    }
}

double
Histogram::max() const
{
    const double m = maxVal.load(std::memory_order_relaxed);
    return std::isinf(m) && m < 0
               ? std::numeric_limits<double>::quiet_NaN()
               : m;
}

double
Histogram::mean() const
{
    const std::uint64_t n = count();
    return n ? sum() / double(n)
             : std::numeric_limits<double>::quiet_NaN();
}

std::uint64_t
Histogram::cumulative(std::size_t k) const
{
    std::uint64_t cum = 0;
    const std::size_t last = std::min(k, counts.size() - 1);
    for (std::size_t i = 0; i <= last; ++i)
        cum += counts[i].load(std::memory_order_relaxed);
    return cum;
}

double
Histogram::quantile(double p) const
{
    p = std::clamp(p, 0.0, 1.0);
    // One consistent snapshot of the buckets (relaxed per-slot, but
    // each slot read once).
    std::vector<std::uint64_t> snap(counts.size());
    std::uint64_t n = 0;
    for (std::size_t i = 0; i < counts.size(); ++i) {
        snap[i] = counts[i].load(std::memory_order_relaxed);
        n += snap[i];
    }
    if (n == 0)
        return std::numeric_limits<double>::quiet_NaN();
    const double rank = p * double(n);
    std::uint64_t cum = 0;
    for (std::size_t i = 0; i < snap.size(); ++i) {
        const std::uint64_t before = cum;
        cum += snap[i];
        if (double(cum) < rank || snap[i] == 0)
            continue;
        if (i + 1 == snap.size()) // +Inf bucket: clamp to observed max
            return max();
        const double lo = i == 0 ? 0.0 : upper[i - 1];
        const double hi = upper[i];
        const double frac =
            std::clamp((rank - double(before)) / double(snap[i]), 0.0,
                       1.0);
        const double est = lo + (hi - lo) * frac;
        const double mx = max();
        return std::isnan(mx) ? est : std::min(est, mx);
    }
    return max();
}

// ----------------------------------------------------------------
// MetricsRegistry
// ----------------------------------------------------------------

MetricsRegistry::Instrument &
MetricsRegistry::instrument(const std::string &name,
                            const std::string &help, Labels labels,
                            Kind kind)
{
    if (!validMetricName(name))
        panic("MetricsRegistry: invalid metric name '%s'",
              name.c_str());
    for (const auto &[key, value] : labels) {
        (void)value;
        if (!validLabelName(key))
            panic("MetricsRegistry: invalid label name '%s' on '%s'",
                  key.c_str(), name.c_str());
    }
    std::sort(labels.begin(), labels.end());

    Family &fam = families[name];
    if (fam.instruments.empty()) {
        fam.kind = kind;
        fam.help = help;
    } else {
        if (fam.kind != kind) {
            panic("MetricsRegistry: '%s' re-registered under a "
                  "different type",
                  name.c_str());
        }
        if (!help.empty() && !fam.help.empty() && help != fam.help) {
            panic("MetricsRegistry: '%s' re-registered with a "
                  "different help string",
                  name.c_str());
        }
        if (fam.help.empty())
            fam.help = help;
    }

    const std::string key = labelString(labels);
    Instrument &ins = fam.instruments[key];
    if (ins.labels.empty() && !labels.empty())
        ins.labels = std::move(labels);
    return ins;
}

Counter &
MetricsRegistry::counter(const std::string &name,
                         const std::string &help, Labels labels)
{
    std::lock_guard<std::mutex> lock(mtx);
    Instrument &ins =
        instrument(name, help, std::move(labels), Kind::Counter);
    if (!ins.counter)
        ins.counter = std::make_unique<Counter>();
    return *ins.counter;
}

Histogram &
MetricsRegistry::histogram(const std::string &name,
                           const std::string &help, Labels labels,
                           const HistogramSpec &spec)
{
    std::lock_guard<std::mutex> lock(mtx);
    Instrument &ins =
        instrument(name, help, std::move(labels), Kind::Histogram);
    if (!ins.histogram)
        ins.histogram = std::make_unique<Histogram>(spec);
    return *ins.histogram;
}

void
MetricsRegistry::counterFn(const std::string &name,
                           const std::string &help, Labels labels,
                           std::function<std::uint64_t()> fn)
{
    std::lock_guard<std::mutex> lock(mtx);
    Instrument &ins =
        instrument(name, help, std::move(labels), Kind::CounterFn);
    ins.counterCb = std::move(fn);
}

void
MetricsRegistry::gaugeFn(const std::string &name,
                         const std::string &help, Labels labels,
                         std::function<double()> fn)
{
    std::lock_guard<std::mutex> lock(mtx);
    Instrument &ins =
        instrument(name, help, std::move(labels), Kind::GaugeFn);
    ins.gaugeCb = std::move(fn);
}

std::string
MetricsRegistry::prometheusText() const
{
    std::lock_guard<std::mutex> lock(mtx);
    std::ostringstream os;
    for (const auto &[name, fam] : families) {
        const bool counterLike = fam.kind == Kind::Counter ||
                                 fam.kind == Kind::CounterFn;
        const bool histo = fam.kind == Kind::Histogram;
        if (!fam.help.empty())
            os << "# HELP " << name << ' ' << escapeHelp(fam.help)
               << '\n';
        os << "# TYPE " << name << ' '
           << kindName(counterLike, histo) << '\n';
        for (const auto &[labelKey, ins] : fam.instruments) {
            switch (fam.kind) {
              case Kind::Counter:
                os << name << labelKey << ' ' << ins.counter->value()
                   << '\n';
                break;
              case Kind::CounterFn:
                os << name << labelKey << ' '
                   << (ins.counterCb ? ins.counterCb() : 0) << '\n';
                break;
              case Kind::GaugeFn:
                os << name << labelKey << ' '
                   << formatValue(ins.gaugeCb ? ins.gaugeCb() : 0.0)
                   << '\n';
                break;
              case Kind::Histogram: {
                const Histogram &h = *ins.histogram;
                const auto &bounds = h.bounds();
                std::uint64_t cum = 0;
                for (std::size_t k = 0; k <= bounds.size(); ++k) {
                    // cumulative(k) re-sums from 0; one incremental
                    // walk keeps the exposition internally
                    // consistent (le="+Inf" == _count).
                    cum = h.cumulative(k);
                    const std::string le =
                        k == bounds.size() ? "+Inf"
                                           : formatValue(bounds[k]);
                    os << name << "_bucket"
                       << labelStringWithLe(ins.labels, le) << ' '
                       << cum << '\n';
                }
                os << name << "_sum" << labelKey << ' '
                   << formatValue(h.sum()) << '\n';
                os << name << "_count" << labelKey << ' ' << cum
                   << '\n';
                break;
              }
            }
        }
    }
    return os.str();
}

Json
MetricsRegistry::toJson() const
{
    std::lock_guard<std::mutex> lock(mtx);
    Json fams = Json::array();
    for (const auto &[name, fam] : families) {
        const bool counterLike = fam.kind == Kind::Counter ||
                                 fam.kind == Kind::CounterFn;
        const bool histo = fam.kind == Kind::Histogram;
        Json f = Json::object();
        f.set("name", Json::string(name));
        f.set("type", Json::string(kindName(counterLike, histo)));
        f.set("help", Json::string(fam.help));
        Json metricsArr = Json::array();
        for (const auto &[labelKey, ins] : fam.instruments) {
            (void)labelKey;
            Json m = Json::object();
            Json labelObj = Json::object();
            for (const auto &[key, value] : ins.labels)
                labelObj.set(key, Json::string(value));
            m.set("labels", std::move(labelObj));
            switch (fam.kind) {
              case Kind::Counter:
                m.set("value", Json::number(ins.counter->value()));
                break;
              case Kind::CounterFn:
                m.set("value", Json::number(
                                   ins.counterCb ? ins.counterCb()
                                                 : 0));
                break;
              case Kind::GaugeFn:
                m.set("value",
                      Json::number(ins.gaugeCb ? ins.gaugeCb()
                                               : 0.0));
                break;
              case Kind::Histogram: {
                const Histogram &h = *ins.histogram;
                m.set("count", Json::number(h.cumulative(
                                   h.bounds().size())));
                m.set("sum", Json::number(h.sum()));
                m.set("mean", Json::number(h.mean()));
                m.set("max", Json::number(h.max()));
                m.set("p50", Json::number(h.quantile(0.50)));
                m.set("p90", Json::number(h.quantile(0.90)));
                m.set("p99", Json::number(h.quantile(0.99)));
                Json buckets = Json::array();
                for (std::size_t k = 0; k <= h.bounds().size(); ++k) {
                    Json b = Json::object();
                    b.set("le",
                          k == h.bounds().size()
                              ? Json::string("+Inf")
                              : Json::number(h.bounds()[k]));
                    b.set("count", Json::number(h.cumulative(k)));
                    buckets.push(std::move(b));
                }
                m.set("buckets", std::move(buckets));
                break;
              }
            }
            metricsArr.push(std::move(m));
        }
        f.set("metrics", std::move(metricsArr));
        fams.push(std::move(f));
    }
    Json doc = Json::object();
    doc.set("families", std::move(fams));
    return doc;
}

} // namespace killi::metrics

#include "fault/scenario_spec.hh"

#include <cmath>
#include <cstdio>
#include <cstring>

#include "common/log.hh"
#include "common/options.hh"
#include "fault/voltage_model.hh"

namespace killi
{

namespace
{

constexpr const char *kFormat = "killi-scenario-v1";

bool
knownModel(const std::string &name)
{
    return name == "iid" || name == "clustered" || name == "burst" ||
           name == "droop";
}

/** Throw the Error of a malformed scenario document. */
[[noreturn]] void
reject(const std::string &message)
{
    throwError("scenario: %s", message.c_str());
}

double
getNumber(const Json &obj, const char *key, double dflt, double lo,
          double hi)
{
    if (!obj.contains(key))
        return dflt;
    const Json &v = obj.at(key);
    if (!v.isNumber())
        reject(std::string(key) + " must be a number");
    const double d = v.asDouble();
    if (!std::isfinite(d) || d < lo || d > hi) {
        char buf[128];
        std::snprintf(buf, sizeof(buf),
                      "%s = %g out of range [%g, %g]", key, d, lo, hi);
        reject(buf);
    }
    return d;
}

unsigned
getUnsigned(const Json &obj, const char *key, unsigned dflt,
            unsigned lo, unsigned hi)
{
    if (!obj.contains(key))
        return dflt;
    const Json &v = obj.at(key);
    if (v.kind() != Json::Kind::Int)
        reject(std::string(key) + " must be an integer");
    const std::int64_t i = v.asInt();
    if (i < std::int64_t(lo) || i > std::int64_t(hi)) {
        char buf[128];
        std::snprintf(buf, sizeof(buf),
                      "%s = %lld out of range [%u, %u]", key,
                      static_cast<long long>(i), lo, hi);
        reject(buf);
    }
    return static_cast<unsigned>(i);
}

void
rejectUnknownKeys(const Json &obj,
                  const std::vector<std::string> &allowed,
                  const char *where)
{
    for (const auto &[key, value] : obj.members()) {
        (void)value;
        bool known = false;
        for (const std::string &name : allowed)
            known |= key == name;
        if (!known)
            reject("unknown " + std::string(where) + " key '" + key +
                   "'");
    }
}

void
parseClusterParams(const Json &params, ClusterParams &out)
{
    out.rowFrac = getNumber(params, "row_frac", out.rowFrac, 0.0, 1.0);
    out.rowBoost =
        getNumber(params, "row_boost", out.rowBoost, 1.0, 1e6);
    out.colFrac = getNumber(params, "col_frac", out.colFrac, 0.0, 1.0);
    out.colBoost =
        getNumber(params, "col_boost", out.colBoost, 1.0, 1e6);
    out.clusterRate = getNumber(params, "cluster_rate",
                                out.clusterRate, 0.0, 16.0);
    out.clusterLines = getUnsigned(params, "cluster_lines",
                                   out.clusterLines, 1, 1024);
    out.clusterBits = getUnsigned(params, "cluster_bits",
                                  out.clusterBits, 1, 0xFFFF);
    out.clusterP =
        getNumber(params, "cluster_p", out.clusterP, 0.0, 1.0);
    out.clusterVmax = getNumber(params, "cluster_vmax", out.clusterVmax,
                                VoltageModel::minVoltage(), 1.0);
}

void
parseBurstParams(const Json &params, BurstParams &out)
{
    out.burstRate =
        getNumber(params, "burst_rate", out.burstRate, 0.0, 16.0);
    out.lenMinBytes = getUnsigned(params, "len_min_bytes",
                                  out.lenMinBytes, 1, 64);
    out.lenMaxBytes = getUnsigned(params, "len_max_bytes",
                                  out.lenMaxBytes, 1, 64);
    out.pWithin = getNumber(params, "p_within", out.pWithin, 0.0, 1.0);
    out.burstVmax = getNumber(params, "burst_vmax", out.burstVmax,
                              VoltageModel::minVoltage(), 1.0);
    if (out.lenMinBytes > out.lenMaxBytes)
        reject("len_min_bytes exceeds len_max_bytes");
}

std::vector<std::string>
clusterKeys()
{
    return {"row_frac",     "row_boost",     "col_frac",
            "col_boost",    "cluster_rate",  "cluster_lines",
            "cluster_bits", "cluster_p",     "cluster_vmax"};
}

std::vector<std::string>
burstKeys()
{
    return {"burst_rate", "len_min_bytes", "len_max_bytes", "p_within",
            "burst_vmax"};
}

Json
clusterJson(const ClusterParams &c)
{
    Json p = Json::object();
    p.set("row_frac", Json::number(c.rowFrac));
    p.set("row_boost", Json::number(c.rowBoost));
    p.set("col_frac", Json::number(c.colFrac));
    p.set("col_boost", Json::number(c.colBoost));
    p.set("cluster_rate", Json::number(c.clusterRate));
    p.set("cluster_lines", Json::number(std::uint64_t(c.clusterLines)));
    p.set("cluster_bits", Json::number(std::uint64_t(c.clusterBits)));
    p.set("cluster_p", Json::number(c.clusterP));
    p.set("cluster_vmax", Json::number(c.clusterVmax));
    return p;
}

Json
burstJson(const BurstParams &b)
{
    Json p = Json::object();
    p.set("burst_rate", Json::number(b.burstRate));
    p.set("len_min_bytes", Json::number(std::uint64_t(b.lenMinBytes)));
    p.set("len_max_bytes", Json::number(std::uint64_t(b.lenMaxBytes)));
    p.set("p_within", Json::number(b.pWithin));
    p.set("burst_vmax", Json::number(b.burstVmax));
    return p;
}

} // namespace

Json
ScenarioSpec::toJson() const
{
    Json doc = Json::object();
    doc.set("format", Json::string(kFormat));
    doc.set("model", Json::string(model));
    doc.set("seed", Json::string(std::to_string(seed)));
    doc.set("voltage", Json::number(voltage));
    doc.set("freq_ghz", Json::number(freqGHz));
    if (model == "clustered") {
        doc.set("params", clusterJson(cluster));
    } else if (model == "burst") {
        doc.set("params", burstJson(burst));
    } else if (model == "droop") {
        Json p = Json::object();
        p.set("base", Json::string(droop.base));
        Json sched = Json::array();
        for (const double v : droop.schedule)
            sched.push(Json::number(v));
        p.set("schedule", sched);
        if (droop.base == "clustered") {
            const Json baseParams = clusterJson(cluster);
            for (const auto &[key, value] : baseParams.members())
                p.set(key, value);
        } else if (droop.base == "burst") {
            const Json baseParams = burstJson(burst);
            for (const auto &[key, value] : baseParams.members())
                p.set(key, value);
        }
        doc.set("params", p);
    }
    return doc;
}

ScenarioSpec
ScenarioSpec::fromJson(const Json &doc)
{
    ScenarioSpec spec;
    if (doc.kind() != Json::Kind::Object)
        reject("document must be a JSON object");
    rejectUnknownKeys(
        doc, {"format", "model", "seed", "voltage", "freq_ghz", "params"},
        "scenario");

    if (doc.contains("format")) {
        const Json &fmt = doc.at("format");
        if (fmt.kind() != Json::Kind::String ||
            fmt.asString() != kFormat) {
            reject("unsupported format (expected \"" +
                   std::string(kFormat) + "\")");
        }
    }

    if (doc.contains("model")) {
        const Json &m = doc.at("model");
        if (m.kind() != Json::Kind::String || !knownModel(m.asString()))
            reject("model must be one of iid|clustered|burst|droop");
        spec.model = m.asString();
    }

    if (doc.contains("seed")) {
        const Json &s = doc.at("seed");
        if (s.kind() == Json::Kind::String) {
            if (!tryParseUint(s.asString(), spec.seed))
                reject("seed string is not a decimal uint64");
        } else if (s.kind() == Json::Kind::Int && s.asInt() >= 0) {
            spec.seed = static_cast<std::uint64_t>(s.asInt());
        } else {
            reject("seed must be a decimal string or a non-negative "
                   "integer");
        }
    }

    spec.voltage = getNumber(doc, "voltage", spec.voltage,
                             VoltageModel::minVoltage(), 1.0);
    spec.freqGHz = getNumber(doc, "freq_ghz", spec.freqGHz, 0.1, 4.0);

    const Json empty = Json::object();
    const Json &params =
        doc.contains("params") ? doc.at("params") : empty;
    if (params.kind() != Json::Kind::Object)
        reject("params must be an object");

    if (spec.model == "iid") {
        rejectUnknownKeys(params, {}, "iid params");
    } else if (spec.model == "clustered") {
        rejectUnknownKeys(params, clusterKeys(), "clustered params");
        parseClusterParams(params, spec.cluster);
    } else if (spec.model == "burst") {
        rejectUnknownKeys(params, burstKeys(), "burst params");
        parseBurstParams(params, spec.burst);
    } else if (spec.model == "droop") {
        if (params.contains("base")) {
            const Json &base = params.at("base");
            if (base.kind() != Json::Kind::String ||
                (base.asString() != "iid" &&
                 base.asString() != "clustered" &&
                 base.asString() != "burst"))
                reject("droop base must be one of iid|clustered|burst");
            spec.droop.base = base.asString();
        }
        std::vector<std::string> allowed = {"base", "schedule"};
        if (spec.droop.base == "clustered") {
            for (auto &key : clusterKeys())
                allowed.push_back(key);
            parseClusterParams(params, spec.cluster);
        } else if (spec.droop.base == "burst") {
            for (auto &key : burstKeys())
                allowed.push_back(key);
            parseBurstParams(params, spec.burst);
        }
        rejectUnknownKeys(params, allowed, "droop params");
        if (params.contains("schedule")) {
            const Json &sched = params.at("schedule");
            if (sched.kind() != Json::Kind::Array)
                reject("schedule must be an array of voltages");
            if (sched.size() > 64)
                reject("schedule longer than 64 steps");
            for (std::size_t i = 0; i < sched.size(); ++i) {
                const Json &v = sched.at(i);
                const double d = v.isNumber() ? v.asDouble() : -1.0;
                if (d < VoltageModel::minVoltage() || d > 1.0)
                    reject("schedule voltage out of range [0.45, 1.0]");
                spec.droop.schedule.push_back(d);
            }
        }
    }
    return spec;
}

ScenarioSpec
ScenarioSpec::fromString(const std::string &fileOrInline)
{
    Json doc;
    if (!fileOrInline.empty() && fileOrInline.front() == '{') {
        std::string err;
        if (!Json::parse(fileOrInline, doc, &err))
            reject("inline JSON: " + err);
    } else {
        try {
            doc = readJsonFile(fileOrInline);
        } catch (const Error &e) {
            // Named after the option, like every other scenario
            // error: "json: cannot open ..." reads "scenario: ...".
            reject(std::string(e.what()).substr(std::strlen("json: ")));
        }
    }
    return fromJson(doc);
}

std::string
ScenarioSpec::summary() const
{
    char buf[160];
    if (model == "droop") {
        std::snprintf(buf, sizeof(buf),
                      "droop(%s) %zu steps v=%.4g seed=%llu",
                      droop.base.c_str(), droop.schedule.size(), voltage,
                      static_cast<unsigned long long>(seed));
    } else {
        std::snprintf(buf, sizeof(buf), "%s v=%.4g seed=%llu",
                      model.c_str(), voltage,
                      static_cast<unsigned long long>(seed));
    }
    return buf;
}

} // namespace killi

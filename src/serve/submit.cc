#include "serve/submit.hh"

#include <cmath>

#include "common/build_info.hh"
#include "common/log.hh"
#include "replay/session.hh"

namespace killi::serve
{

namespace
{

/** The resolved members the canonical key and the result "options"
 *  echo share, in their pinned order. */
void
setResolvedMembers(Json &doc, const SweepOptions &sopt)
{
    doc.set("scale", Json::number(sopt.scale));
    doc.set("warmup", Json::number(std::uint64_t(sopt.warmupPasses)));
    doc.set("voltage", Json::number(sopt.voltage));
    doc.set("seed", Json::number(sopt.seed));
    doc.set("stats_interval",
            Json::number(std::uint64_t(sopt.statsInterval)));
    doc.set("scenario", sopt.scenario.toJson());
    doc.set("workloads", Json::stringArray(sopt.workloads));
    doc.set("schemes", Json::stringArray(sopt.schemes));
    doc.set("build", Json::string(buildId()));
}

/** parseSubmit() without the catch: throws killi::Error. */
SubmitRequest
decodeSubmit(const Json &req)
{
    SubmitRequest out;
    const Json *options = nullptr;
    const Json *replay = nullptr;
    for (const auto &[key, value] : req.members()) {
        if (key == "type")
            continue;
        if (key == "record") {
            if (value.kind() != Json::Kind::Bool)
                throwError("\"record\" must be a boolean");
            out.record = value.asBool();
        } else if (key == "replay") {
            if (value.kind() != Json::Kind::Object)
                throwError("\"replay\" must be an inline "
                           "killi-recording-v1 object");
            replay = &value;
        } else if (key == "priority") {
            const double d = value.isNumber() ? value.asDouble() : NAN;
            if (!(d >= -1000) || !(d <= 1000) || d != std::floor(d))
                throwError(
                    "\"priority\" must be an integer in [-1000, 1000]");
            out.priority = int(d);
        } else if (key == "stream") {
            if (value.kind() != Json::Kind::Bool)
                throwError("\"stream\" must be a boolean");
            out.stream = value.asBool();
        } else if (key == "options") {
            options = &value;
        } else {
            throwError("unknown submit member \"%s\"", key.c_str());
        }
    }

    // A replay job re-derives everything from the recording's meta,
    // through the same decoder and checks as the options path;
    // options given alongside would be silently ignored, so they are
    // rejected instead (priority/stream stay meaningful).
    if (replay) {
        if (out.record)
            throwError("\"record\" and \"replay\" are mutually "
                       "exclusive");
        if (options)
            throwError("\"replay\" jobs take their options from the "
                       "recording; drop \"options\"");
        try {
            out.replayRec = std::make_shared<replay::Recording>(
                replay::Recording::fromJson(*replay));
            out.sopt = replay::sweepOptionsFromMeta(*out.replayRec);
        } catch (const Error &e) {
            throwError("\"replay\": %s", e.what());
        }
        return out;
    }
    // The decoder leaves the execution knobs at their defaults, which
    // is the fixed server-side policy: one worker per job, no file
    // side effects (results travel on the wire, not to disk).
    out.sopt = decodeSweepOptions(options ? *options : Json::object(),
                                  SweepWire::Submit);
    return out;
}

} // namespace

bool
parseSubmit(const Json &req, SubmitRequest &out, std::string &err)
{
    try {
        out = decodeSubmit(req);
        return true;
    } catch (const Error &e) {
        err = e.what();
        return false;
    }
}

std::string
canonicalKeyFor(const SweepOptions &sopt)
{
    Json key = Json::object();
    key.set("experiment", Json::string("sweep"));
    setResolvedMembers(key, sopt);
    return key.toString(0);
}

Json
resolvedOptionsJson(const SweepOptions &sopt)
{
    Json doc = Json::object();
    setResolvedMembers(doc, sopt);
    return doc;
}

} // namespace killi::serve

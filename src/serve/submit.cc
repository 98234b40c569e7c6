#include "serve/submit.hh"

#include "common/build_info.hh"
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

} // namespace

bool
parseSubmit(const Json &req, SubmitRequest &out, std::string &err)
{
    out = SubmitRequest{};
    const Json *options = nullptr;
    for (const auto &[key, value] : req.members()) {
        if (key == "type")
            continue;
        if (key == "record") {
            if (value.kind() != Json::Kind::Bool) {
                err = "\"record\" must be a boolean";
                return false;
            }
            out.record = value.asBool();
        } else if (key == "replay") {
            if (value.kind() != Json::Kind::Object) {
                err = "\"replay\" must be an inline "
                      "killi-recording-v1 object";
                return false;
            }
            auto rec = std::make_shared<replay::Recording>();
            std::string rerr;
            if (!replay::Recording::tryFromJson(value, *rec, &rerr)) {
                err = "\"replay\": " + rerr;
                return false;
            }
            out.replayRec = std::move(rec);
        } else if (key == "priority") {
            if (!value.isNumber() || !(value.asDouble() >= -1000) ||
                !(value.asDouble() <= 1000)) {
                err = "\"priority\" must be in [-1000, 1000]";
                return false;
            }
            out.priority = int(value.asDouble());
        } else if (key == "stream") {
            if (value.kind() != Json::Kind::Bool) {
                err = "\"stream\" must be a boolean";
                return false;
            }
            out.stream = value.asBool();
        } else if (key == "options") {
            options = &value;
        } else {
            err = "unknown submit member \"" + key + "\"";
            return false;
        }
    }

    // A replay job re-derives everything from the recording's meta,
    // through the same decoder and checks as the options path;
    // options given alongside would be silently ignored, so they are
    // rejected instead (priority/stream stay meaningful).
    if (out.replayRec) {
        if (out.record) {
            err = "\"record\" and \"replay\" are mutually exclusive";
            return false;
        }
        if (options) {
            err = "\"replay\" jobs take their options from the "
                  "recording; drop \"options\"";
            return false;
        }
        std::string rerr;
        if (!replay::trySweepOptionsFromMeta(*out.replayRec, out.sopt,
                                             &rerr)) {
            err = "\"replay\": " + rerr;
            return false;
        }
        return true;
    }
    // The decoder leaves the execution knobs at their defaults, which
    // is the fixed server-side policy: one worker per job, no file
    // side effects (results travel on the wire, not to disk).
    return decodeSweepOptions(options ? *options : Json::object(),
                              SweepWire::Submit, out.sopt, err);
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

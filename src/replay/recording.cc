#include "replay/recording.hh"

#include <cerrno>
#include <cmath>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <sstream>

#include "common/log.hh"

namespace killi::replay
{

namespace
{

/** Exact u64 <-> decimal-string round-trip (the JSON layer is
 *  double-backed, so full-width values travel as strings). */
Json
u64Json(std::uint64_t v)
{
    return Json::string(std::to_string(v));
}

bool
parseU64(const Json &v, std::uint64_t &out, std::string &err,
         const char *what)
{
    if (v.kind() == Json::Kind::String) {
        const std::string &s = v.asString();
        if (s.empty()) {
            err = std::string(what) + ": empty numeric string";
            return false;
        }
        errno = 0;
        char *end = nullptr;
        const unsigned long long parsed =
            std::strtoull(s.c_str(), &end, 10);
        if (errno != 0 || end != s.c_str() + s.size()) {
            err = std::string(what) + ": bad numeric string '" + s +
                  "'";
            return false;
        }
        out = parsed;
        return true;
    }
    if (v.isNumber()) {
        const double d = v.asDouble();
        if (!(d >= 0) || d != std::floor(d) ||
            d > 9007199254740992.0) {
            err = std::string(what) +
                  ": must be a non-negative integer <= 2^53";
            return false;
        }
        out = std::uint64_t(d);
        return true;
    }
    err = std::string(what) + ": expected a number or numeric string";
    return false;
}

bool
parseI32(const Json &v, int &out, std::string &err, const char *what)
{
    if (!v.isNumber()) {
        err = std::string(what) + ": expected a number";
        return false;
    }
    const double d = v.asDouble();
    if (d != std::floor(d) || d < -2147483648.0 || d > 2147483647.0) {
        err = std::string(what) + ": out of int range";
        return false;
    }
    out = int(d);
    return true;
}

bool
parseStringArray(const Json &v, std::vector<std::string> &out,
                 std::string &err, const char *what)
{
    if (v.kind() != Json::Kind::Array) {
        err = std::string(what) + ": expected an array";
        return false;
    }
    out.clear();
    for (std::size_t i = 0; i < v.size(); ++i) {
        if (v.at(i).kind() != Json::Kind::String) {
            err = std::string(what) + ": members must be strings";
            return false;
        }
        out.push_back(v.at(i).asString());
    }
    return true;
}

std::uint64_t
mix64(std::uint64_t hash, std::uint64_t value)
{
    // FNV-1a over the value's 8 bytes.
    for (int b = 0; b < 8; ++b) {
        hash ^= (value >> (8 * b)) & 0xff;
        hash *= 0x100000001b3ULL;
    }
    return hash;
}

constexpr std::uint64_t kFnvOffset = 0xcbf29ce484222325ULL;

} // namespace

std::uint64_t
rollDigest(std::uint64_t prefix, std::uint64_t entry)
{
    return mix64(prefix ? prefix : kFnvOffset, entry);
}

std::uint64_t
textDigest(const char *text)
{
    std::uint64_t h = kFnvOffset;
    for (const char *p = text; *p; ++p) {
        h ^= std::uint8_t(*p);
        h *= 0x100000001b3ULL;
    }
    return h;
}

std::uint32_t
Recording::internStream(const char *label)
{
    for (std::size_t i = 0; i < streams.size(); ++i)
        if (streams[i] == label)
            return std::uint32_t(i);
    streams.push_back(label);
    return std::uint32_t(streams.size() - 1);
}

std::uint32_t
Recording::internName(const char *name)
{
    for (std::size_t i = 0; i < names.size(); ++i)
        if (names[i] == name)
            return std::uint32_t(i);
    names.push_back(name);
    return std::uint32_t(names.size() - 1);
}

std::uint64_t
Recording::digestOf(const RngSegment &s)
{
    // Not the stream index: the segment digest is seeded from the
    // label text (textDigest), so content identity survives
    // different interning orders.
    std::uint64_t h = kFnvOffset;
    h = mix64(h, s.pop);
    h = mix64(h, s.count);
    h = mix64(h, s.digest);
    return h;
}

std::uint64_t
Recording::digestOf(const EventPop &p)
{
    std::uint64_t h = kFnvOffset;
    h = mix64(h, p.when);
    h = mix64(h, std::uint64_t(std::int64_t(p.priority)));
    h = mix64(h, p.seq);
    return h;
}

std::uint64_t
Recording::digestOf(const TraceRec &t)
{
    std::uint64_t h = kFnvOffset;
    h = mix64(h, t.tick);
    h = mix64(h, t.pop);
    // Deliberately NOT the name index: interning order may differ
    // between two otherwise equal runs only if their streams already
    // diverged, and the argument digest already folds the name text.
    h = mix64(h, t.digest);
    return h;
}

void
Recording::rebuildCheckpoints(std::uint64_t every)
{
    checkpoints.clear();
    if (every == 0)
        every = 1024;
    Checkpoint cp;
    std::uint64_t steps = 0;
    const std::uint64_t total = rng.size() + pops.size() +
        trace.size();
    // Walk all three streams in lockstep strides so one checkpoint
    // row summarizes comparable prefixes of each.
    while (cp.rng < rng.size() || cp.pops < pops.size() ||
           cp.trace < trace.size()) {
        const std::uint64_t rngEnd = std::min<std::uint64_t>(
            rng.size(), cp.rng + every);
        const std::uint64_t popEnd = std::min<std::uint64_t>(
            pops.size(), cp.pops + every);
        const std::uint64_t traceEnd = std::min<std::uint64_t>(
            trace.size(), cp.trace + every);
        for (std::uint64_t i = cp.rng; i < rngEnd; ++i)
            cp.rngDigest = rollDigest(cp.rngDigest, digestOf(rng[i]));
        for (std::uint64_t i = cp.pops; i < popEnd; ++i)
            cp.popDigest = rollDigest(cp.popDigest, digestOf(pops[i]));
        for (std::uint64_t i = cp.trace; i < traceEnd; ++i)
            cp.traceDigest =
                rollDigest(cp.traceDigest, digestOf(trace[i]));
        cp.rng = rngEnd;
        cp.pops = popEnd;
        cp.trace = traceEnd;
        checkpoints.push_back(cp);
        ++steps;
        if (steps > total + 1)
            break; // defensive: cannot happen
    }
}

Json
Recording::toJson() const
{
    Json doc = Json::object();
    doc.set("format", Json::string(kRecordingFormat));
    doc.set("tool", Json::string(tool));
    doc.set("build", Json::string(build));
    doc.set("meta", meta);
    doc.set("trace_mask", Json::number(std::uint64_t(traceMask)));
    doc.set("trace_enabled", Json::boolean(traceEnabled));
    doc.set("reference_mode", Json::boolean(false));
    doc.set("perturb_decode", u64Json(perturbDecode));
    doc.set("streams", Json::stringArray(streams));
    doc.set("names", Json::stringArray(names));

    Json rngArr = Json::array();
    for (const RngSegment &s : rng) {
        Json e = Json::array();
        e.push(Json::number(std::uint64_t(s.stream)));
        e.push(Json::number(s.pop));
        e.push(Json::number(s.count));
        e.push(u64Json(s.digest));
        rngArr.push(std::move(e));
    }
    doc.set("rng", std::move(rngArr));

    Json popArr = Json::array();
    for (const EventPop &p : pops) {
        Json e = Json::array();
        e.push(Json::number(std::uint64_t(p.when)));
        e.push(Json::number(std::int64_t(p.priority)));
        e.push(Json::number(p.seq));
        popArr.push(std::move(e));
    }
    doc.set("pops", std::move(popArr));

    Json traceArr = Json::array();
    for (const TraceRec &t : trace) {
        Json e = Json::array();
        e.push(Json::number(std::uint64_t(t.tick)));
        e.push(Json::number(t.pop));
        e.push(Json::number(std::uint64_t(t.name)));
        e.push(u64Json(t.digest));
        traceArr.push(std::move(e));
    }
    doc.set("trace", std::move(traceArr));

    Json markArr = Json::array();
    for (const Mark &m : marks) {
        Json e = Json::object();
        e.set("name", Json::string(m.name));
        e.set("rng", Json::number(m.rng));
        e.set("pops", Json::number(m.pops));
        e.set("trace", Json::number(m.trace));
        markArr.push(std::move(e));
    }
    doc.set("marks", std::move(markArr));

    Json cpArr = Json::array();
    for (const Checkpoint &cp : checkpoints) {
        Json e = Json::array();
        e.push(Json::number(cp.rng));
        e.push(Json::number(cp.pops));
        e.push(Json::number(cp.trace));
        e.push(u64Json(cp.rngDigest));
        e.push(u64Json(cp.popDigest));
        e.push(u64Json(cp.traceDigest));
        cpArr.push(std::move(e));
    }
    doc.set("checkpoints", std::move(cpArr));

    doc.set("result_digest", Json::string(resultDigest));
    return doc;
}

bool
Recording::tryFromJson(const Json &doc, Recording &out,
                       std::string *errOut)
{
    std::string err;
    const auto fail = [&](const std::string &what) {
        if (errOut)
            *errOut = "recording: " + what;
        return false;
    };
    if (doc.kind() != Json::Kind::Object)
        return fail("document must be an object");
    for (const char *key :
         {"format", "tool", "build", "meta", "trace_mask",
          "trace_enabled", "reference_mode", "perturb_decode",
          "streams", "names", "rng", "pops", "trace", "marks",
          "checkpoints", "result_digest"}) {
        if (!doc.contains(key))
            return fail(std::string("missing member \"") + key +
                        "\"");
    }
    if (doc.at("format").kind() != Json::Kind::String ||
        doc.at("format").asString() != kRecordingFormat) {
        return fail(std::string("not a ") + kRecordingFormat +
                    " document");
    }
    out = Recording{};
    if (doc.at("tool").kind() != Json::Kind::String ||
        doc.at("build").kind() != Json::Kind::String ||
        doc.at("result_digest").kind() != Json::Kind::String)
        return fail("tool/build/result_digest must be strings");
    out.tool = doc.at("tool").asString();
    out.build = doc.at("build").asString();
    out.resultDigest = doc.at("result_digest").asString();
    out.meta = doc.at("meta");
    std::uint64_t u = 0;
    if (!parseU64(doc.at("trace_mask"), u, err, "trace_mask"))
        return fail(err);
    out.traceMask = std::uint32_t(u);
    if (doc.at("trace_enabled").kind() != Json::Kind::Bool ||
        doc.at("reference_mode").kind() != Json::Kind::Bool)
        return fail("trace_enabled/reference_mode must be booleans");
    out.traceEnabled = doc.at("trace_enabled").asBool();
    if (doc.at("reference_mode").asBool())
        return fail("reference_mode recordings are no longer "
                    "replayable: the global reference mode was "
                    "removed");
    if (!parseU64(doc.at("perturb_decode"), out.perturbDecode, err,
                  "perturb_decode"))
        return fail(err);
    if (!parseStringArray(doc.at("streams"), out.streams, err,
                          "streams") ||
        !parseStringArray(doc.at("names"), out.names, err, "names"))
        return fail(err);

    const Json &rngArr = doc.at("rng");
    if (rngArr.kind() != Json::Kind::Array)
        return fail("\"rng\" must be an array");
    out.rng.reserve(rngArr.size());
    for (std::size_t i = 0; i < rngArr.size(); ++i) {
        const Json &e = rngArr.at(i);
        if (e.kind() != Json::Kind::Array || e.size() != 4)
            return fail(
                "rng entries must be [stream, pop, count, digest]");
        RngSegment s;
        std::uint64_t stream = 0;
        if (!parseU64(e.at(std::size_t(0)), stream, err,
                      "rng stream") ||
            !parseU64(e.at(std::size_t(1)), s.pop, err, "rng pop") ||
            !parseU64(e.at(std::size_t(2)), s.count, err,
                      "rng count") ||
            !parseU64(e.at(std::size_t(3)), s.digest, err,
                      "rng digest"))
            return fail(err);
        if (stream >= out.streams.size())
            return fail("rng stream index out of range");
        s.stream = std::uint32_t(stream);
        out.rng.push_back(s);
    }

    const Json &popArr = doc.at("pops");
    if (popArr.kind() != Json::Kind::Array)
        return fail("\"pops\" must be an array");
    out.pops.reserve(popArr.size());
    for (std::size_t i = 0; i < popArr.size(); ++i) {
        const Json &e = popArr.at(i);
        if (e.kind() != Json::Kind::Array || e.size() != 3)
            return fail("pop entries must be [when, priority, seq]");
        EventPop p;
        std::uint64_t when = 0;
        if (!parseU64(e.at(std::size_t(0)), when, err, "pop when") ||
            !parseI32(e.at(std::size_t(1)), p.priority, err,
                      "pop priority") ||
            !parseU64(e.at(std::size_t(2)), p.seq, err, "pop seq"))
            return fail(err);
        p.when = Tick(when);
        out.pops.push_back(p);
    }

    const Json &traceArr = doc.at("trace");
    if (traceArr.kind() != Json::Kind::Array)
        return fail("\"trace\" must be an array");
    out.trace.reserve(traceArr.size());
    for (std::size_t i = 0; i < traceArr.size(); ++i) {
        const Json &e = traceArr.at(i);
        if (e.kind() != Json::Kind::Array || e.size() != 4)
            return fail(
                "trace entries must be [tick, pop, name, digest]");
        TraceRec t;
        std::uint64_t tick = 0, name = 0;
        if (!parseU64(e.at(std::size_t(0)), tick, err,
                      "trace tick") ||
            !parseU64(e.at(std::size_t(1)), t.pop, err,
                      "trace pop") ||
            !parseU64(e.at(std::size_t(2)), name, err,
                      "trace name") ||
            !parseU64(e.at(std::size_t(3)), t.digest, err,
                      "trace digest"))
            return fail(err);
        if (name >= out.names.size())
            return fail("trace name index out of range");
        t.tick = Tick(tick);
        t.name = std::uint32_t(name);
        out.trace.push_back(t);
    }

    const Json &markArr = doc.at("marks");
    if (markArr.kind() != Json::Kind::Array)
        return fail("\"marks\" must be an array");
    for (std::size_t i = 0; i < markArr.size(); ++i) {
        const Json &e = markArr.at(i);
        if (e.kind() != Json::Kind::Object || !e.contains("name") ||
            e.at("name").kind() != Json::Kind::String)
            return fail("marks must be objects with a \"name\"");
        Mark m;
        m.name = e.at("name").asString();
        if (!e.contains("rng") || !e.contains("pops") ||
            !e.contains("trace") ||
            !parseU64(e.at("rng"), m.rng, err, "mark rng") ||
            !parseU64(e.at("pops"), m.pops, err, "mark pops") ||
            !parseU64(e.at("trace"), m.trace, err, "mark trace"))
            return fail(err.empty() ? "mark missing positions" : err);
        out.marks.push_back(std::move(m));
    }

    const Json &cpArr = doc.at("checkpoints");
    if (cpArr.kind() != Json::Kind::Array)
        return fail("\"checkpoints\" must be an array");
    for (std::size_t i = 0; i < cpArr.size(); ++i) {
        const Json &e = cpArr.at(i);
        if (e.kind() != Json::Kind::Array || e.size() != 6)
            return fail("checkpoint entries must have 6 members");
        Checkpoint cp;
        if (!parseU64(e.at(std::size_t(0)), cp.rng, err, "cp rng") ||
            !parseU64(e.at(std::size_t(1)), cp.pops, err,
                      "cp pops") ||
            !parseU64(e.at(std::size_t(2)), cp.trace, err,
                      "cp trace") ||
            !parseU64(e.at(std::size_t(3)), cp.rngDigest, err,
                      "cp rng digest") ||
            !parseU64(e.at(std::size_t(4)), cp.popDigest, err,
                      "cp pop digest") ||
            !parseU64(e.at(std::size_t(5)), cp.traceDigest, err,
                      "cp trace digest"))
            return fail(err);
        out.checkpoints.push_back(cp);
    }
    return true;
}

Recording
Recording::fromJson(const Json &doc)
{
    Recording rec;
    std::string err;
    if (!tryFromJson(doc, rec, &err))
        fatal("%s", err.c_str());
    return rec;
}

void
Recording::writeFile(const std::string &path) const
{
    // Compact form (the stream arrays dominate; pretty-printing
    // would quadruple the file), written through the same
    // directory-creating path as writeJsonFile.
    const std::filesystem::path fsPath(path);
    if (fsPath.has_parent_path()) {
        std::error_code ec;
        std::filesystem::create_directories(fsPath.parent_path(), ec);
        if (ec) {
            fatal("recording: cannot create directory '%s': %s",
                  fsPath.parent_path().c_str(), ec.message().c_str());
        }
    }
    std::ofstream out(path);
    if (!out)
        fatal("recording: cannot open '%s' for writing",
              path.c_str());
    out << toJson().toString(0) << '\n';
    if (!out)
        fatal("recording: write to '%s' failed", path.c_str());
}

Recording
Recording::loadFile(const std::string &path)
{
    return fromJson(readJsonFile(path));
}

std::string
Recording::summary() const
{
    std::uint64_t draws = 0;
    for (const RngSegment &s : rng)
        draws += s.count;
    std::ostringstream os;
    os << kRecordingFormat << " tool=" << tool << " build=" << build
       << " rng=" << rng.size() << " segs (" << draws
       << " draws) pops=" << pops.size()
       << " trace=" << trace.size() << " marks=" << marks.size();
    if (perturbDecode)
        os << " perturb-decode=" << perturbDecode;
    os << " result=" << resultDigest.substr(0, 12);
    return os.str();
}

} // namespace killi::replay

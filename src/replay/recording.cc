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

/** Exact u64 <-> decimal-string round-trip (a JSON number holds an
 *  int64 or a double, so full-width values travel as strings). */
Json
u64Json(std::uint64_t v)
{
    return Json::string(std::to_string(v));
}

/** Throw the Error of a malformed recording. */
[[noreturn]] void
reject(const std::string &what)
{
    throwError("recording: %s", what.c_str());
}

std::uint64_t
parseU64(const Json &v, const char *what)
{
    if (v.kind() == Json::Kind::String) {
        const std::string &s = v.asString();
        if (s.empty())
            reject(std::string(what) + ": empty numeric string");
        errno = 0;
        char *end = nullptr;
        const unsigned long long parsed =
            std::strtoull(s.c_str(), &end, 10);
        if (errno != 0 || end != s.c_str() + s.size())
            reject(std::string(what) + ": bad numeric string '" + s +
                   "'");
        return parsed;
    }
    if (!v.isNumber())
        reject(std::string(what) +
               ": expected a number or numeric string");
    const double d = v.asDouble();
    if (!(d >= 0) || d != std::floor(d) || d > 9007199254740992.0)
        reject(std::string(what) +
               ": must be a non-negative integer <= 2^53");
    return std::uint64_t(d);
}

std::vector<std::string>
parseStringArray(const Json &v, const char *what)
{
    if (v.kind() != Json::Kind::Array)
        reject(std::string(what) + ": expected an array");
    std::vector<std::string> out;
    for (std::size_t i = 0; i < v.size(); ++i) {
        if (v.at(i).kind() != Json::Kind::String)
            reject(std::string(what) + ": members must be strings");
        out.push_back(v.at(i).asString());
    }
    return out;
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
    h = mix64(h, 0); // v1's priority column, always 0
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
        e.push(Json::number(std::uint64_t(0))); // v1 priority column
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

Recording
Recording::fromJson(const Json &doc)
{
    if (doc.kind() != Json::Kind::Object)
        reject("document must be an object");
    for (const char *key :
         {"format", "tool", "build", "meta", "trace_mask",
          "trace_enabled", "reference_mode", "perturb_decode",
          "streams", "names", "rng", "pops", "trace", "marks",
          "checkpoints", "result_digest"}) {
        if (!doc.contains(key))
            reject(std::string("missing member \"") + key + "\"");
    }
    if (doc.at("format").kind() != Json::Kind::String ||
        doc.at("format").asString() != kRecordingFormat)
        reject(std::string("not a ") + kRecordingFormat + " document");
    Recording out;
    if (doc.at("tool").kind() != Json::Kind::String ||
        doc.at("build").kind() != Json::Kind::String ||
        doc.at("result_digest").kind() != Json::Kind::String)
        reject("tool/build/result_digest must be strings");
    out.tool = doc.at("tool").asString();
    out.build = doc.at("build").asString();
    out.resultDigest = doc.at("result_digest").asString();
    out.meta = doc.at("meta");
    out.traceMask =
        std::uint32_t(parseU64(doc.at("trace_mask"), "trace_mask"));
    if (doc.at("trace_enabled").kind() != Json::Kind::Bool ||
        doc.at("reference_mode").kind() != Json::Kind::Bool)
        reject("trace_enabled/reference_mode must be booleans");
    out.traceEnabled = doc.at("trace_enabled").asBool();
    if (doc.at("reference_mode").asBool())
        reject("reference_mode recordings are no longer replayable: "
               "the global reference mode was removed");
    out.perturbDecode =
        parseU64(doc.at("perturb_decode"), "perturb_decode");
    out.streams = parseStringArray(doc.at("streams"), "streams");
    out.names = parseStringArray(doc.at("names"), "names");

    const Json &rngArr = doc.at("rng");
    if (rngArr.kind() != Json::Kind::Array)
        reject("\"rng\" must be an array");
    out.rng.reserve(rngArr.size());
    for (std::size_t i = 0; i < rngArr.size(); ++i) {
        const Json &e = rngArr.at(i);
        if (e.kind() != Json::Kind::Array || e.size() != 4)
            reject("rng entries must be [stream, pop, count, digest]");
        RngSegment s;
        const std::uint64_t stream =
            parseU64(e.at(std::size_t(0)), "rng stream");
        s.pop = parseU64(e.at(std::size_t(1)), "rng pop");
        s.count = parseU64(e.at(std::size_t(2)), "rng count");
        s.digest = parseU64(e.at(std::size_t(3)), "rng digest");
        if (stream >= out.streams.size())
            reject("rng stream index out of range");
        s.stream = std::uint32_t(stream);
        out.rng.push_back(s);
    }

    const Json &popArr = doc.at("pops");
    if (popArr.kind() != Json::Kind::Array)
        reject("\"pops\" must be an array");
    out.pops.reserve(popArr.size());
    for (std::size_t i = 0; i < popArr.size(); ++i) {
        const Json &e = popArr.at(i);
        if (e.kind() != Json::Kind::Array || e.size() != 3)
            reject("pop entries must be [when, 0, seq]");
        EventPop p;
        p.when = Tick(parseU64(e.at(std::size_t(0)), "pop when"));
        const std::uint64_t zero =
            parseU64(e.at(std::size_t(1)), "pop priority");
        p.seq = parseU64(e.at(std::size_t(2)), "pop seq");
        if (zero != 0)
            reject("pop priority: the v1 column must be 0");
        out.pops.push_back(p);
    }

    const Json &traceArr = doc.at("trace");
    if (traceArr.kind() != Json::Kind::Array)
        reject("\"trace\" must be an array");
    out.trace.reserve(traceArr.size());
    for (std::size_t i = 0; i < traceArr.size(); ++i) {
        const Json &e = traceArr.at(i);
        if (e.kind() != Json::Kind::Array || e.size() != 4)
            reject("trace entries must be [tick, pop, name, digest]");
        TraceRec t;
        t.tick = Tick(parseU64(e.at(std::size_t(0)), "trace tick"));
        t.pop = parseU64(e.at(std::size_t(1)), "trace pop");
        const std::uint64_t name =
            parseU64(e.at(std::size_t(2)), "trace name");
        t.digest = parseU64(e.at(std::size_t(3)), "trace digest");
        if (name >= out.names.size())
            reject("trace name index out of range");
        t.name = std::uint32_t(name);
        out.trace.push_back(t);
    }

    const Json &markArr = doc.at("marks");
    if (markArr.kind() != Json::Kind::Array)
        reject("\"marks\" must be an array");
    for (std::size_t i = 0; i < markArr.size(); ++i) {
        const Json &e = markArr.at(i);
        if (e.kind() != Json::Kind::Object || !e.contains("name") ||
            e.at("name").kind() != Json::Kind::String)
            reject("marks must be objects with a \"name\"");
        if (!e.contains("rng") || !e.contains("pops") ||
            !e.contains("trace"))
            reject("mark missing positions");
        Mark m;
        m.name = e.at("name").asString();
        m.rng = parseU64(e.at("rng"), "mark rng");
        m.pops = parseU64(e.at("pops"), "mark pops");
        m.trace = parseU64(e.at("trace"), "mark trace");
        out.marks.push_back(std::move(m));
    }

    const Json &cpArr = doc.at("checkpoints");
    if (cpArr.kind() != Json::Kind::Array)
        reject("\"checkpoints\" must be an array");
    for (std::size_t i = 0; i < cpArr.size(); ++i) {
        const Json &e = cpArr.at(i);
        if (e.kind() != Json::Kind::Array || e.size() != 6)
            reject("checkpoint entries must have 6 members");
        Checkpoint cp;
        cp.rng = parseU64(e.at(std::size_t(0)), "cp rng");
        cp.pops = parseU64(e.at(std::size_t(1)), "cp pops");
        cp.trace = parseU64(e.at(std::size_t(2)), "cp trace");
        cp.rngDigest = parseU64(e.at(std::size_t(3)), "cp rng digest");
        cp.popDigest = parseU64(e.at(std::size_t(4)), "cp pop digest");
        cp.traceDigest =
            parseU64(e.at(std::size_t(5)), "cp trace digest");
        out.checkpoints.push_back(cp);
    }
    return out;
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
            throwError("recording: cannot create directory '%s': %s",
                       fsPath.parent_path().c_str(),
                       ec.message().c_str());
        }
    }
    std::ofstream out(path);
    if (!out)
        throwError("recording: cannot open '%s' for writing",
                   path.c_str());
    out << toJson().toString(0) << '\n';
    if (!out)
        throwError("recording: write to '%s' failed", path.c_str());
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

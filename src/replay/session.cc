#include "replay/session.hh"

#include <sstream>

#include "common/build_info.hh"
#include "common/hash.hh"
#include "common/log.hh"
#include "trace/trace.hh"

namespace killi::replay
{

namespace
{

std::string
hex64(std::uint64_t v)
{
    std::ostringstream os;
    os << "0x" << std::hex << v;
    return os.str();
}

/** A pop as divergence text: "(when, seq)". */
std::string
popText(Tick when, std::uint64_t seq)
{
    return "(" + std::to_string(when) + ", " + std::to_string(seq) + ")";
}

/**
 * The canonical result text the bit-identity contract covers: the
 * sweep document minus the campaign report, whose wall-clock
 * timings are legitimately nondeterministic. Everything else —
 * per-point RunResults, normalized times, timeseries — is simulated
 * content and must replay byte-identically.
 */
std::string
canonicalSweepText(const SweepOptions &opt, const SweepResult &res)
{
    const Json full = sweepToJson(opt, res);
    Json doc = Json::object();
    for (const auto &[key, value] : full.members()) {
        if (key != "campaign")
            doc.set(key, value);
    }
    return doc.toString(0);
}

} // namespace

Json
Divergence::toJson() const
{
    Json doc = Json::object();
    doc.set("found", Json::boolean(found));
    if (!found)
        return doc;
    doc.set("stream", Json::string(stream));
    doc.set("index", Json::number(index));
    doc.set("tick", Json::number(std::uint64_t(tick)));
    doc.set("seq", Json::number(seq));
    doc.set("expected", Json::string(expected));
    doc.set("actual", Json::string(actual));
    if (!rngStream.empty())
        doc.set("rng_stream", Json::string(rngStream));
    return doc;
}

std::string
Divergence::describe() const
{
    if (!found)
        return "bit-identical (no divergence)";
    std::ostringstream os;
    os << "first divergence: stream=" << stream << " index=" << index
       << " tick=" << tick << " seq=" << seq;
    if (!rngStream.empty())
        os << " rng-stream=" << rngStream;
    os << "\n  recorded: " << expected << "\n  replayed: " << actual;
    return os.str();
}

bool
RngSegmentBuilder::feed(const char *label, std::uint64_t pop,
                        std::uint64_t value, PendingSegment &out)
{
    bool emitted = false;
    if (active && (cur.pop != pop || cur.stream != label)) {
        out = std::move(cur);
        emitted = true;
        active = false;
    }
    if (!active) {
        cur = PendingSegment{};
        cur.stream = label;
        cur.pop = pop;
        cur.digest = textDigest(label);
        active = true;
    }
    cur.digest = rollDigest(cur.digest, value);
    ++cur.count;
    return emitted;
}

bool
RngSegmentBuilder::flush(PendingSegment &out)
{
    if (!active)
        return false;
    out = std::move(cur);
    active = false;
    return true;
}

Recorder::Recorder(std::string tool)
{
    rec.tool = std::move(tool);
    rec.build = buildId();
    rec.traceMask = kCompiledTraceMask;
}

std::uint64_t
Recorder::filterRngDraw(std::uint64_t value)
{
    PendingSegment done;
    if (rngBuilder.feed(rngStreamLabel(), popCount, value, done)) {
        rec.rng.push_back(
            RngSegment{rec.internStream(done.stream.c_str()),
                       done.pop, done.count, done.digest});
    }
    return value;
}

void
Recorder::onEventPop(Tick when, std::uint64_t seq)
{
    rec.pops.push_back(EventPop{when, seq});
    ++popCount;
}

void
Recorder::onTraceRecord(Tick tick, std::uint32_t, const char *name,
                        std::uint64_t argDigest)
{
    rec.trace.push_back(
        TraceRec{tick, popCount, rec.internName(name), argDigest});
}

void
Recorder::mark(const std::string &name)
{
    rec.marks.push_back(Mark{name, rec.rng.size(), rec.pops.size(),
                             rec.trace.size()});
}

void
Recorder::finish(const std::string &resultText)
{
    PendingSegment tail;
    if (rngBuilder.flush(tail)) {
        rec.rng.push_back(
            RngSegment{rec.internStream(tail.stream.c_str()),
                       tail.pop, tail.count, tail.digest});
    }
    rec.traceEnabled = !rec.trace.empty();
    rec.resultDigest = sha256Hex(resultText);
    rec.rebuildCheckpoints();
}

Replayer::Replayer(const Recording &recording)
    : rec(recording),
      compareTrace(recording.traceEnabled &&
                   recording.traceMask == kCompiledTraceMask)
{
}

void
Replayer::flag(Divergence d)
{
    if (div.found)
        return;
    d.found = true;
    div = std::move(d);
}

void
Replayer::popContext(std::uint64_t pop, Divergence &d) const
{
    if (pop == 0 || rec.pops.empty()) {
        d.tick = 0;
        d.seq = 0;
        return;
    }
    const std::uint64_t i = std::min<std::uint64_t>(
        pop, rec.pops.size());
    d.tick = rec.pops[i - 1].when;
    d.seq = rec.pops[i - 1].seq;
}

std::uint64_t
Replayer::filterRngDraw(std::uint64_t value)
{
    PendingSegment done;
    if (rngBuilder.feed(rngStreamLabel(), popCount, value, done))
        compareSegment(done);
    return value;
}

void
Replayer::compareSegment(const PendingSegment &seg)
{
    const std::uint64_t i = rngIdx++;
    const std::string actual = seg.stream + " pop=" +
        std::to_string(seg.pop) + " draws=" +
        std::to_string(seg.count) + " digest=" + hex64(seg.digest);
    if (i >= rec.rng.size()) {
        Divergence d;
        d.stream = "rng";
        d.index = i;
        d.rngStream = seg.stream;
        d.expected = "(end of recorded rng stream)";
        d.actual = actual;
        popContext(seg.pop, d);
        flag(std::move(d));
        return;
    }
    const RngSegment &rs = rec.rng[i];
    if (rec.streams[rs.stream] != seg.stream || rs.pop != seg.pop ||
        rs.count != seg.count || rs.digest != seg.digest) {
        Divergence d;
        d.stream = "rng";
        d.index = i;
        d.rngStream = rec.streams[rs.stream];
        d.expected = rec.streams[rs.stream] + " pop=" +
                     std::to_string(rs.pop) + " draws=" +
                     std::to_string(rs.count) + " digest=" +
                     hex64(rs.digest);
        d.actual = actual;
        popContext(rs.pop, d);
        flag(std::move(d));
    }
}

void
Replayer::onEventPop(Tick when, std::uint64_t seq)
{
    const std::uint64_t i = popIdx++;
    ++popCount;
    if (i >= rec.pops.size()) {
        Divergence d;
        d.stream = "pop";
        d.index = i;
        d.tick = when;
        d.seq = seq;
        d.expected = "(end of recorded pop stream)";
        d.actual = popText(when, seq);
        flag(std::move(d));
        return;
    }
    const EventPop &e = rec.pops[i];
    if (e.when != when || e.seq != seq) {
        Divergence d;
        d.stream = "pop";
        d.index = i;
        d.tick = e.when;
        d.seq = e.seq;
        d.expected = popText(e.when, e.seq);
        d.actual = popText(when, seq);
        flag(std::move(d));
    }
}

void
Replayer::onTraceRecord(Tick tick, std::uint32_t, const char *name,
                        std::uint64_t argDigest)
{
    if (!compareTrace)
        return;
    const std::uint64_t i = traceIdx++;
    if (i >= rec.trace.size()) {
        Divergence d;
        d.stream = "trace";
        d.index = i;
        d.tick = tick;
        d.expected = "(end of recorded trace stream)";
        d.actual = std::string(name) + " digest=" + hex64(argDigest);
        popContext(popCount, d);
        d.tick = tick;
        flag(std::move(d));
        return;
    }
    const TraceRec &t = rec.trace[i];
    if (t.tick != tick || t.pop != popCount ||
        t.digest != argDigest || rec.names[t.name] != name) {
        Divergence d;
        d.stream = "trace";
        d.index = i;
        popContext(t.pop, d);
        d.tick = t.tick;
        d.expected = rec.names[t.name] + " tick=" +
                     std::to_string(t.tick) + " pop=" +
                     std::to_string(t.pop) + " digest=" +
                     hex64(t.digest);
        d.actual = std::string(name) + " tick=" +
                   std::to_string(tick) + " pop=" +
                   std::to_string(popCount) + " digest=" +
                   hex64(argDigest);
        flag(std::move(d));
    }
}

void
Replayer::finish(const std::string &resultText)
{
    PendingSegment tail;
    if (rngBuilder.flush(tail))
        compareSegment(tail);
    if (rngIdx < rec.rng.size()) {
        Divergence d;
        d.stream = "length";
        d.index = rngIdx;
        d.expected = std::to_string(rec.rng.size()) +
                     " recorded rng segments";
        d.actual = std::to_string(rngIdx) + " replayed";
        popContext(rec.rng[rngIdx].pop, d);
        flag(std::move(d));
    }
    if (popIdx < rec.pops.size()) {
        Divergence d;
        d.stream = "length";
        d.index = popIdx;
        d.expected = std::to_string(rec.pops.size()) +
                     " recorded event pops";
        d.actual = std::to_string(popIdx) + " replayed";
        d.tick = rec.pops[popIdx].when;
        d.seq = rec.pops[popIdx].seq;
        flag(std::move(d));
    }
    if (compareTrace && traceIdx < rec.trace.size()) {
        Divergence d;
        d.stream = "length";
        d.index = traceIdx;
        d.expected = std::to_string(rec.trace.size()) +
                     " recorded trace records";
        d.actual = std::to_string(traceIdx) + " replayed";
        d.tick = rec.trace[traceIdx].tick;
        flag(std::move(d));
    }
    const std::string digest = sha256Hex(resultText);
    if (digest != rec.resultDigest) {
        Divergence d;
        d.stream = "result";
        d.expected = rec.resultDigest;
        d.actual = digest;
        if (!rec.pops.empty()) {
            d.tick = rec.pops.back().when;
            d.seq = rec.pops.back().seq;
        }
        flag(std::move(d));
    }
}

SweepSession
recordSweep(const SweepOptions &optIn, std::uint64_t perturbDecode)
{
    SweepSession s;
    s.opt = optIn;
    s.opt.jobs = 1;
    s.opt.jsonPath.clear();
    s.opt.timeseriesPath.clear();
    s.opt.onProgress = nullptr;
    // Recordings must capture the sampler's RNG draws, so the run
    // samples its die itself, once, like every campaign — a warm
    // population source, had the embedder set one, is stripped here.
    s.opt.warmFaultSource = nullptr;
    if (s.opt.trace.empty()) {
        // Record every category's digests without writing per-point
        // trace files: the recording carries the checkpoints, not
        // the filesystem.
        s.opt.trace = "all";
        s.opt.traceDir.clear();
    }

    Recorder recorder("sweep");
    Json meta = Json::object();
    meta.set("options", encodeSweepOptions(s.opt, SweepWire::Recording));
    recorder.recording().meta = std::move(meta);
    recorder.recording().perturbDecode = perturbDecode;

    const auto userProgress = optIn.onProgress;
    SweepOptions run = s.opt;
    run.onProgress = [&recorder,
                      &userProgress](const SweepProgress &p) {
        if (p.pointDone)
            recorder.mark(p.point);
        if (userProgress)
            userProgress(p);
    };
    run.cancel = optIn.cancel;
    {
        // jobs=1 runs the sweep on this thread, so the thread-local
        // arm and probe reach exactly this run.
        const ScopedPerturbDecode perturb(perturbDecode);
        const ScopedReplayProbe probe(&recorder);
        s.result = runEvaluationSweep(run);
    }
    s.resultText = canonicalSweepText(s.opt, s.result);
    recorder.finish(s.resultText);
    s.recording = std::move(recorder.recording());
    return s;
}

bool
trySweepOptionsFromMeta(const Recording &rec, SweepOptions &opt,
                        std::string *err)
{
    std::string why;
    if (rec.tool != "sweep")
        why = "recording tool is '" + rec.tool + "', not 'sweep'";
    else if (rec.meta.kind() != Json::Kind::Object ||
             !rec.meta.contains("options"))
        why = "sweep recording has no meta.options";
    else if (decodeSweepOptions(rec.meta.at("options"),
                                SweepWire::Recording, opt, why))
        return true;
    else
        why = "meta.options: " + why;
    if (err)
        *err = why;
    return false;
}

SweepSession
replaySweep(const Recording &rec, const SweepOptions *embedder)
{
    SweepSession s;
    std::string err;
    if (!trySweepOptionsFromMeta(rec, s.opt, &err))
        fatal("replay: %s", err.c_str());
    if (embedder) {
        // Only the observation hooks merge. Deliberately NOT
        // warmFaultSource: adopting a warm population skips the
        // sampler's RNG draws, which the recording captured — a
        // warm-backed replay would diverge on its first rng record.
        s.opt.onProgress = embedder->onProgress;
        s.opt.cancel = embedder->cancel;
    }
    Replayer rep(rec);
    {
        const ScopedPerturbDecode perturb(rec.perturbDecode);
        const ScopedReplayProbe probe(&rep);
        s.result = runEvaluationSweep(s.opt);
    }
    s.resultText = canonicalSweepText(s.opt, s.result);
    rep.finish(s.resultText);
    s.verified = rep.ok();
    s.divergence = rep.divergence();
    return s;
}

CheckSession
recordScenario(const check::Scenario &scenario,
               std::size_t maxViolations)
{
    CheckSession s;
    s.scenario = scenario;
    Recorder recorder("kcheck");
    Json meta = Json::object();
    meta.set("scenario", scenario.toJson());
    meta.set("max_violations",
             Json::number(std::uint64_t(maxViolations)));
    recorder.recording().meta = std::move(meta);
    {
        const ScopedReplayProbe probe(&recorder);
        s.result = check::runScenario(scenario, maxViolations);
    }
    s.resultText = s.result.toJson().toString(0);
    recorder.finish(s.resultText);
    s.recording = std::move(recorder.recording());
    return s;
}

CheckSession
replayScenario(const Recording &rec)
{
    if (rec.tool != "kcheck")
        fatal("replay: recording tool is '%s', not 'kcheck'",
              rec.tool.c_str());
    if (rec.meta.kind() != Json::Kind::Object ||
        !rec.meta.contains("scenario") ||
        !rec.meta.contains("max_violations"))
        fatal("replay: kcheck recording needs meta.scenario and "
              "meta.max_violations");
    CheckSession s;
    s.scenario = check::Scenario::fromJson(rec.meta.at("scenario"));
    const auto maxViolations =
        std::size_t(rec.meta.at("max_violations").asDouble());
    Replayer rep(rec);
    {
        const ScopedReplayProbe probe(&rep);
        s.result = check::runScenario(s.scenario, maxViolations);
    }
    s.resultText = s.result.toJson().toString(0);
    rep.finish(s.resultText);
    s.verified = rep.ok();
    s.divergence = rep.divergence();
    return s;
}

} // namespace killi::replay

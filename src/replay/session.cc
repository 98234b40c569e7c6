#include "replay/session.hh"

#include <cstring>

#include "common/build_info.hh"
#include "common/hash.hh"
#include "common/log.hh"
#include "trace/trace.hh"

namespace killi::replay
{

namespace
{

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

/**
 * Run @p run under a Recorder for @p tool carrying @p meta, with the
 * decode perturbation @p perturbDecode armed on this thread for the
 * run only, and seal the recording with the canonical result text
 * @p run returns. The run must execute on the calling thread (jobs=1
 * campaigns do), so the thread-local arm and probe reach exactly it.
 */
template <typename Run>
Recording
recordRun(const char *tool, Json meta, std::uint64_t perturbDecode,
          Run &&run)
{
    Recorder recorder(tool);
    recorder.recording().meta = std::move(meta);
    recorder.recording().perturbDecode = perturbDecode;
    std::string resultText;
    {
        const ScopedPerturbDecode perturb(perturbDecode);
        const ScopedReplayProbe probe(&recorder);
        resultText = run(recorder);
    }
    recorder.finish(resultText);
    return std::move(recorder.recording());
}

/**
 * Record the sweep @p s.opt (single-threaded, no file side effects,
 * no warm population source) into @p s, passing point completions
 * and cancellation through from @p hooks when given.
 */
void
recordSweepInto(SweepSession &s, std::uint64_t perturbDecode,
                const SweepOptions *hooks)
{
    Json meta = Json::object();
    meta.set("options", encodeSweepOptions(s.opt, SweepWire::Recording));
    s.recording = recordRun(
        "sweep", std::move(meta), perturbDecode, [&](Recorder &rec) {
            SweepOptions run = s.opt;
            run.onProgress = [&rec, hooks](const SweepProgress &p) {
                if (p.pointDone)
                    rec.mark(p.point);
                if (hooks && hooks->onProgress)
                    hooks->onProgress(p);
            };
            run.cancel = hooks ? hooks->cancel : nullptr;
            s.result = runEvaluationSweep(run);
            s.resultText = canonicalSweepText(s.opt, s.result);
            return s.resultText;
        });
}

/** Record the scenario @p s.scenario into @p s. */
void
recordScenarioInto(CheckSession &s, std::size_t maxViolations,
                   std::uint64_t perturbDecode)
{
    Json meta = Json::object();
    meta.set("scenario", s.scenario.toJson());
    meta.set("max_violations",
             Json::number(std::uint64_t(maxViolations)));
    s.recording = recordRun(
        "kcheck", std::move(meta), perturbDecode, [&](Recorder &) {
            s.result = check::runScenario(s.scenario, maxViolations);
            s.resultText = s.result.toJson().toString(0);
            return s.resultText;
        });
}

} // namespace

Recorder::Recorder(std::string tool)
{
    rec.tool = std::move(tool);
    rec.build = buildId();
    rec.traceMask = kCompiledTraceMask;
}

void
Recorder::closeSegment()
{
    if (segment.count == 0)
        return;
    rec.rng.push_back(segment);
    segment.count = 0;
}

void
Recorder::onRngDraw(std::uint64_t value)
{
    const char *label = rngStreamLabel();
    if (segment.count != 0 &&
        (segment.pop != popCount ||
         (label != segmentLabel &&
          std::strcmp(label, segmentLabel) != 0)))
        closeSegment();
    if (segment.count == 0) {
        segment = RngSegment{rec.internStream(label), popCount, 0,
                             textDigest(label)};
        segmentLabel = label;
    }
    segment.digest = rollDigest(segment.digest, value);
    ++segment.count;
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
    closeSegment();
    rec.traceEnabled = !rec.trace.empty();
    rec.resultDigest = sha256Hex(resultText);
    rec.rebuildCheckpoints();
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
    recordSweepInto(s, perturbDecode, &optIn);
    return s;
}

SweepOptions
sweepOptionsFromMeta(const Recording &rec)
{
    if (rec.tool != "sweep")
        throwError("recording tool is '%s', not 'sweep'",
                   rec.tool.c_str());
    if (rec.meta.kind() != Json::Kind::Object ||
        !rec.meta.contains("options"))
        throwError("sweep recording has no meta.options");
    try {
        return decodeSweepOptions(rec.meta.at("options"),
                                  SweepWire::Recording);
    } catch (const Error &e) {
        throwError("meta.options: %s", e.what());
    }
}

SweepSession
replaySweep(const Recording &rec, const SweepOptions *embedder)
{
    SweepSession s;
    try {
        s.opt = sweepOptionsFromMeta(rec);
    } catch (const Error &e) {
        throwError("replay: %s", e.what());
    }
    // Only the embedder's observation hooks pass through. Deliberately
    // NOT warmFaultSource: adopting a warm population skips the
    // sampler's RNG draws, which the recording captured — a
    // warm-backed replay would diverge on its first rng record.
    recordSweepInto(s, rec.perturbDecode, embedder);
    s.divergence = bisectRecordings(rec, s.recording);
    s.verified = !s.divergence.diverged;
    return s;
}

CheckSession
recordScenario(const check::Scenario &scenario,
               std::size_t maxViolations)
{
    CheckSession s;
    s.scenario = scenario;
    recordScenarioInto(s, maxViolations, 0);
    return s;
}

CheckSession
replayScenario(const Recording &rec)
{
    if (rec.tool != "kcheck")
        throwError("replay: recording tool is '%s', not 'kcheck'",
                   rec.tool.c_str());
    if (rec.meta.kind() != Json::Kind::Object ||
        !rec.meta.contains("scenario") ||
        !rec.meta.contains("max_violations"))
        throwError("replay: kcheck recording needs meta.scenario and "
                   "meta.max_violations");
    const Json &maxViolations = rec.meta.at("max_violations");
    if (maxViolations.kind() != Json::Kind::Int ||
        maxViolations.asInt() < 1)
        throwError("replay: meta.max_violations must be an integer "
                   ">= 1, got %s",
                   maxViolations.toString(0).c_str());
    CheckSession s;
    s.scenario = check::Scenario::fromJson(rec.meta.at("scenario"));
    recordScenarioInto(s, std::size_t(maxViolations.asInt()),
                       rec.perturbDecode);
    s.divergence = bisectRecordings(rec, s.recording);
    s.verified = !s.divergence.diverged;
    return s;
}

} // namespace killi::replay

/**
 * @file
 * Record and replay sessions: the ReplayProbe implementations that
 * capture a run into a Recording (Recorder) or verify/inject a run
 * against one (Replayer), plus the drivers that wrap the project's
 * two run kinds — an evaluation sweep (bench/sweep) and a kcheck
 * scenario — in a probe scope.
 *
 * Both drivers force single-threaded execution (jobs=1 campaigns run
 * inline on the calling thread, see runner.hh), so the thread-local
 * probe observes exactly the run it wraps; the serving daemon can
 * record one job on one worker while unrelated jobs proceed
 * unprobed on other workers.
 */

#ifndef KILLI_REPLAY_SESSION_HH
#define KILLI_REPLAY_SESSION_HH

#include <cstdint>
#include <string>

#include "bench/sweep.hh"
#include "check/checker.hh"
#include "check/scenario.hh"
#include "common/replay_probe.hh"
#include "replay/recording.hh"

namespace killi::replay
{

/** First point where a replayed run left its recording. */
struct Divergence
{
    bool found = false;
    /** "rng" | "pop" | "trace" | "result" | "length". */
    std::string stream;
    std::uint64_t index = 0; //!< entry index within the stream
    Tick tick = 0;           //!< simulated time of the divergence
    std::uint64_t seq = 0;   //!< event seq of the enclosing pop
    std::string expected;    //!< recorded side, rendered
    std::string actual;      //!< replayed side, rendered
    std::string rngStream;   //!< RNG stream label (rng divergences)

    Json toJson() const;
    std::string describe() const;
};

/** A completed run of same-(stream, pop) draws, before interning. */
struct PendingSegment
{
    std::string stream;
    std::uint64_t pop = 0;
    std::uint64_t count = 0;
    std::uint64_t digest = 0;
};

/**
 * Folds consecutive Rng draws into RngSegments: a segment closes
 * when the stream label or the enclosing pop changes (or at flush).
 * Recorder and Replayer aggregate with the same rules, so their
 * segmentations agree by construction.
 */
class RngSegmentBuilder
{
  public:
    /** Feed one draw; true when a segment completed into @p out (the
     *  fed draw then opens the next segment). */
    bool feed(const char *label, std::uint64_t pop,
              std::uint64_t value, PendingSegment &out);
    /** Close and emit the in-flight segment, if any. */
    bool flush(PendingSegment &out);

  private:
    bool active = false;
    PendingSegment cur;
};

/** Captures one run into a Recording. Install around the run (the
 *  drivers below do), then finish() with the canonical result text. */
class Recorder : public ReplayProbe
{
  public:
    explicit Recorder(std::string tool);

    std::uint64_t filterRngDraw(std::uint64_t value) override;
    void onEventPop(Tick when, int priority,
                    std::uint64_t seq) override;
    void onTraceRecord(Tick tick, std::uint32_t cat, const char *name,
                       std::uint64_t argDigest) override;

    /** Note a named stream position (sweep-point boundary). */
    void mark(const std::string &name);

    /** Seal the recording: result digest, checkpoints, mode flags. */
    void finish(const std::string &resultText);

    Recording &recording() { return rec; }
    const Recording &recording() const { return rec; }

  private:
    Recording rec;
    RngSegmentBuilder rngBuilder;
    std::uint64_t popCount = 0;
};

/**
 * Verifies a re-run against a Recording. The run's own inputs stay
 * authoritative — verification keeps executing after a mismatch and
 * remembers only the *first* divergence, which is the replay
 * debugging contract: one precise (tick, seq, stream, index)
 * instead of an end-state diff.
 *
 * Trace records are only compared when the recording carried them
 * and the compile-time trace mask matches this build's; otherwise
 * the trace stream is skipped entirely (committed recordings must
 * survive KILLI_TRACE_CATEGORIES variants).
 */
class Replayer : public ReplayProbe
{
  public:
    explicit Replayer(const Recording &recording);

    std::uint64_t filterRngDraw(std::uint64_t value) override;
    void onEventPop(Tick when, int priority,
                    std::uint64_t seq) override;
    void onTraceRecord(Tick tick, std::uint32_t cat, const char *name,
                       std::uint64_t argDigest) override;

    /** Compare stream completeness and the result digest. Call after
     *  the run; further hook calls are not expected. */
    void finish(const std::string &resultText);

    /** True iff every stream matched, fully consumed, and the result
     *  digest agreed. Valid after finish(). */
    bool ok() const { return !div.found; }
    const Divergence &divergence() const { return div; }

  private:
    void flag(Divergence d);
    /** (tick, seq) of the pop enclosing stream position @p pop. */
    void popContext(std::uint64_t pop, Divergence &d) const;
    /** Compare one completed segment against the recorded stream. */
    void compareSegment(const PendingSegment &seg);

    const Recording &rec;
    bool compareTrace;
    Divergence div;
    RngSegmentBuilder rngBuilder;
    std::uint64_t rngIdx = 0;
    std::uint64_t popIdx = 0;
    std::uint64_t traceIdx = 0;
    std::uint64_t popCount = 0;
};

/** The outcome of one recorded or replayed sweep run. */
struct SweepSession
{
    SweepOptions opt;       //!< the options the run actually used
    SweepResult result;
    std::string resultText; //!< canonical sweepToJson(...).toString(0)
    Recording recording;    //!< record mode: the captured run
    bool verified = false;  //!< replay mode: bit-identical
    Divergence divergence;  //!< replay mode: first mismatch
};

/**
 * Run an evaluation sweep under a Recorder. Forces jobs=1 and
 * disables file side effects; when @p opt has no trace categories,
 * records all of them (without writing trace files) so the recording
 * carries per-record divergence checkpoints. A nonzero
 * @p perturbDecode arms that decode perturbation (replay_probe.hh)
 * for the run, on the calling thread only, and is recorded so the
 * replay re-arms it.
 */
SweepSession recordSweep(const SweepOptions &opt,
                         std::uint64_t perturbDecode = 0);

/**
 * Re-derive and re-run a sweep from @p rec alone (its meta carries
 * the resolved options, and the recording its perturb-decode
 * count), verifying every recorded input.
 * @p embedder optionally supplies onProgress/cancel hooks (the
 * serving daemon's streaming and cancellation).
 */
SweepSession replaySweep(const Recording &rec,
                         const SweepOptions *embedder = nullptr);

/** The outcome of one recorded or replayed kcheck scenario run. */
struct CheckSession
{
    check::Scenario scenario;
    check::CheckResult result;
    std::string resultText; //!< result.toJson().toString(0)
    Recording recording;
    bool verified = false;
    Divergence divergence;
};

/** Run one kcheck scenario under a Recorder; the scenario document
 *  itself is embedded in the recording's meta. */
CheckSession recordScenario(const check::Scenario &scenario,
                            std::size_t maxViolations = 8);

/** Re-run the scenario embedded in @p rec, verifying every input
 *  and the result digest. */
CheckSession replayScenario(const Recording &rec);

/**
 * Reconstruct the SweepOptions a sweep recording ran under, through
 * decodeSweepOptions() (bench/sweep.hh) and its checks. Returns
 * false with @p err for a recording that is not a sweep or whose
 * meta.options does not decode, so embedders (the serving daemon)
 * reject a malformed recording instead of fatal()ing.
 */
bool trySweepOptionsFromMeta(const Recording &rec, SweepOptions &opt,
                             std::string *err);

} // namespace killi::replay

#endif // KILLI_REPLAY_SESSION_HH

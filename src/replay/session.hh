/**
 * @file
 * Record and replay sessions: the ReplayProbe that captures a run
 * into a Recording (Recorder), plus the drivers that wrap the
 * project's two run kinds — an evaluation sweep (bench/sweep) and a
 * kcheck scenario — in a probe scope. A replay re-derives the run
 * from a recording, records the re-run the same way, and reports
 * bisectRecordings(recorded, rerun) (bisect.hh) as its verdict.
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
#include "replay/bisect.hh"
#include "replay/recording.hh"

namespace killi::replay
{

/**
 * Captures one run into a Recording. Install around the run (the
 * drivers below do), then finish() with the canonical result text.
 * Consecutive Rng draws of one stream label within one event pop
 * fold into one RngSegment; a segment closes when the label or the
 * enclosing pop changes, and the last one at finish().
 */
class Recorder : public ReplayProbe
{
  public:
    explicit Recorder(std::string tool);

    void onRngDraw(std::uint64_t value) override;
    void onEventPop(Tick when, std::uint64_t seq) override;
    void onTraceRecord(Tick tick, std::uint32_t cat, const char *name,
                       std::uint64_t argDigest) override;

    /** Note a named stream position (sweep-point boundary). */
    void mark(const std::string &name);

    /** Seal the recording: result digest, checkpoints, mode flags. */
    void finish(const std::string &resultText);

    Recording &recording() { return rec; }
    const Recording &recording() const { return rec; }

  private:
    /** Append the in-flight segment, if any, to the recording. */
    void closeSegment();

    Recording rec;
    /** The in-flight segment; open iff its count is nonzero. */
    RngSegment segment;
    /** The label the in-flight segment was opened with. */
    const char *segmentLabel = nullptr;
    std::uint64_t popCount = 0;
};

/** The outcome of one recorded or replayed sweep run. */
struct SweepSession
{
    SweepOptions opt;       //!< the options the run actually used
    SweepResult result;
    std::string resultText; //!< canonical sweepToJson(...).toString(0)
    Recording recording;    //!< the captured run (replay: the re-run)
    bool verified = false;  //!< replay mode: bit-identical
    /** Replay mode: bisectRecordings(file, re-run); side a is the
     *  file, side b the re-run. */
    BisectReport divergence;
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
 * count) under a Recorder, and bisect the re-run against @p rec.
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
    BisectReport divergence;
};

/** Run one kcheck scenario under a Recorder; the scenario document
 *  itself is embedded in the recording's meta. */
CheckSession recordScenario(const check::Scenario &scenario,
                            std::size_t maxViolations = 8);

/** Re-run the scenario embedded in @p rec under a Recorder and
 *  bisect the re-run against @p rec. meta.max_violations must be a
 *  JSON integer >= 1; anything else throws killi::Error. */
CheckSession replayScenario(const Recording &rec);

/**
 * Reconstruct the SweepOptions a sweep recording ran under, through
 * decodeSweepOptions() (bench/sweep.hh) and its checks. Throws
 * killi::Error for a recording that is not a sweep or whose
 * meta.options does not decode, so the serving daemon rejects a
 * malformed recording with an error frame.
 */
SweepOptions sweepOptionsFromMeta(const Recording &rec);

} // namespace killi::replay

#endif // KILLI_REPLAY_SESSION_HH

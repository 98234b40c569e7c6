/**
 * @file
 * Shared evaluation sweep for the Fig. 4 / Fig. 5 / Table 6
 * benchmarks: run every workload of the suite under the fault-free
 * baseline and each LV protection scheme (DECTED, FLAIR, MS-ECC,
 * Killi at the paper's five ECC-cache ratios) on the Table 3 GPU.
 *
 * The campaign samples its die and activates it into one FaultMap;
 * the sweep then executes on the killi::ExperimentRunner: every
 * point (workload × scheme) is an independent job with its own
 * GpuSystem, workload instance and protection scheme, all reading
 * that const map, so `jobs=N` runs N points concurrently while
 * producing tables bit-identical to `jobs=1`.
 * A point that keeps failing after its retries is skipped (ok=false
 * in its SchemeRun) instead of aborting the campaign.
 *
 * Knobs are declared through the typed Options API — run any
 * sweep-based bench binary with --help for the generated list.
 */

#ifndef KILLI_BENCH_SWEEP_HH
#define KILLI_BENCH_SWEEP_HH

#include <cstdint>
#include <functional>
#include <optional>
#include <string>
#include <vector>

#include "common/json.hh"
#include "common/options.hh"
#include "fault/fault_map.hh"
#include "fault/scenario_spec.hh"
#include "gpu/gpu_system.hh"
#include "runner/runner.hh"

namespace killi
{

class FaultModel;

/**
 * One progress observation from a running campaign: either a
 * periodic in-point snapshot (statsInterval > 0; tick/instructions
 * from the point's StatTimeseries tap) or a point-completion event
 * (pointDone, with the campaign-level done/total counts).
 */
struct SweepProgress
{
    std::string point;              //!< "workload/scheme"
    Tick tick = 0;                  //!< simulated tick of the snapshot
    std::uint64_t instructions = 0; //!< measured-region instructions
    bool pointDone = false;
    std::size_t pointsDone = 0;
    std::size_t pointsTotal = 0;
};

struct SweepOptions
{
    double scale = 1.0;
    unsigned warmupPasses = 2;
    /**
     * The fault scenario every sweep point instantiates through
     * FaultModel::fromScenario(). The default spec reproduces the
     * historical iid behaviour bit-identically. voltage/seed below
     * are read-side mirrors of scenario.voltage/scenario.seed kept
     * for reporting; resolveSweepOptions() keeps them in sync, and
     * code constructing SweepOptions programmatically should set the
     * scenario (or use the mirrors' defaults).
     */
    ScenarioSpec scenario;
    double voltage = 0.625;
    std::uint64_t seed = 42;
    /** Worker threads for the campaign (0 = all hardware threads). */
    unsigned jobs = 1;
    /** Extra attempts for a failed sweep point before skipping it. */
    unsigned retries = 1;
    /** Results-file path; empty disables the JSON dump. */
    std::string jsonPath;
    /** Workload subset; empty = the full ten-proxy suite. */
    std::vector<std::string> workloads;
    /** Scheme subset (names from sweepSchemeNames()); empty = all. */
    std::vector<std::string> schemes;
    /** Trace categories recorded per sweep point (e.g. "dfh,ecc,l2"
     *  or "all"); empty disables tracing entirely. */
    std::string trace;
    /** Directory receiving one Chrome trace_event file per traced
     *  sweep point (load them in Perfetto / chrome://tracing); empty
     *  writes no trace files. Record/replay sessions clear it: the
     *  events still flow to the ReplayProbe, but nothing touches the
     *  filesystem. */
    std::string traceDir = "results/trace";
    /** Cycles between periodic stat snapshots (0 disables the
     *  timeseries machinery). */
    Cycle statsInterval = 0;
    /** Path of the combined stat-timeseries JSON, written when
     *  statsInterval > 0; empty disables. */
    std::string timeseriesPath;
    /** Read by nothing; kept only because perfbench assigns it. */
    bool shareDie = false;

    // -- Not CLI knobs; set programmatically by embedders (kserved).

    /**
     * Observer for campaign progress; called from worker threads,
     * possibly concurrently, so it must be thread-safe. Point
     * completions are always reported; periodic in-point snapshots
     * additionally flow when statsInterval > 0.
     */
    std::function<void(const SweepProgress &)> onProgress;
    /** Cooperative cancellation (not owned; may be null): once
     *  cancelled, sweep points that have not started are skipped and
     *  the campaign report records them as such. */
    const CancelToken *cancel = nullptr;
    /**
     * Warm fault-population source (the kserved warm store). Every
     * campaign gets its die exactly once: runEvaluationSweep() offers
     * its (model, geometry) here before sampling, a non-null return
     * is the die, and a null return falls back to sampling; the
     * campaign then activates the die, uncopied, through
     * FaultModel::buildMapFrom(). The die must hold every cell under
     * the cover of model.voltageSchedule() (FaultModel::coverFor()):
     * the kserved store samples exactly those, and a full die holds
     * them too. Called once per campaign, but concurrent campaigns
     * may call it at the same time, so it must be thread-safe.
     * Record/replay sessions must never set this: adopting a
     * population skips the sampler's RNG draws, which a recording
     * captures (kserved installs it for plain jobs only).
     */
    std::function<std::shared_ptr<const FaultPopulation>(
        const FaultModel &model, std::size_t numLines,
        std::size_t lineBits)>
        warmFaultSource;
};

/**
 * Declare the knobs a sweep request carries (scale, warmup,
 * scenario, voltage, seed, workloads, schemes, stats-interval) on
 * @p opts: the half of declareSweepOptions() a client that only
 * submits the sweep (kcli submit) shares with the bench binaries.
 *
 * @param defaultScale default workload length multiplier
 */
void declareSweepRequestOptions(Options &opts,
                                double defaultScale = 1.0);

/**
 * Extract the request half from parsed @p opts, resolved through
 * resolveSweepOptions() (fatal() on an unknown name). Scenario file
 * paths are read here, so the result carries a self-contained spec.
 */
SweepOptions sweepRequestOptions(const Options &opts);

/**
 * Declare every sweep knob: the request half plus the local
 * execution knobs (jobs, retries, json, trace, trace-dir, timeseries).
 *
 * @param benchName stem of the default results path
 *        ("results/<benchName>.json")
 * @param defaultScale default workload length multiplier
 */
void declareSweepOptions(Options &opts, const std::string &benchName,
                         double defaultScale = 1.0);

/** Extract a SweepOptions from parsed @p opts. */
SweepOptions sweepOptions(const Options &opts);

/**
 * The two wire forms of a SweepOptions. Both carry scale, warmup,
 * stats_interval, scenario, workloads and schemes, in that order.
 */
enum class SweepWire
{
    /** A submit frame's "options" object. Adds retries; on decode
     *  every member is optional and the voltage/seed members apply
     *  as overrides of the scenario's voltage/seed. */
    Submit,
    /** A sweep recording's meta.options. Adds trace; on decode all
     *  seven members are required. */
    Recording,
};

/** Encode the result-affecting knobs of @p opt in the @p wire form
 *  (the scenario already folds in any voltage/seed override). */
Json encodeSweepOptions(const SweepOptions &opt,
                        SweepWire wire = SweepWire::Submit);

/**
 * Decode and validate an encoded options object (execution knobs
 * keep their SweepOptions defaults). Strict: unknown members, bad
 * types and out-of-range values throw killi::Error, so the serving
 * daemon can answer a bad request or a tampered recording with an
 * error frame. Ranges mirror declareSweepOptions(); names and lists
 * are resolved by resolveSweepOptions().
 */
SweepOptions decodeSweepOptions(const Json &doc, SweepWire wire);

/**
 * Scenario-first resolution, shared by the CLI and the decoder: the
 * overrides of the scenario's voltage/seed (when given) replace its
 * fields, the voltage/seed mirrors are re-derived (droop
 * scenarios start at their schedule's first operating point), every
 * workload/scheme name is checked, and an empty list expands to the
 * full one, so "all by default" and "all by name" resolve alike.
 */
void resolveSweepOptions(SweepOptions &opt,
                         std::optional<double> voltage,
                         std::optional<std::uint64_t> seed);

/** Split a comma-separated name list, dropping empty entries. */
std::vector<std::string> splitNameList(const std::string &list);

/** One scheme's result on one workload. */
struct SchemeRun
{
    std::string scheme;
    /** False iff this point failed all its attempts and was skipped. */
    bool ok = false;
    RunResult result;
    /** Extra LV storage bits / 512 (power-model input). */
    double areaOverheadFrac = 0.0;
    /** codecShare() key for the power model. */
    std::string powerKey;
    /** StatTimeseries::toJson() of the point's measured region
     *  (null unless statsInterval > 0). */
    Json timeseries = Json::null();
};

struct WorkloadSweep
{
    std::string workload;
    bool memoryBound = false;
    bool baselineOk = false;
    RunResult baseline;
    /** Baseline point's timeseries (null unless statsInterval > 0). */
    Json baselineTimeseries = Json::null();
    std::vector<SchemeRun> schemes;
};

struct SweepResult
{
    std::vector<WorkloadSweep> workloads;
    /** Per-job execution record (attempts, timing, failures). */
    CampaignReport campaign;
};

/** The scheme column order used by Fig. 4 / Fig. 5 / Table 6. */
std::vector<std::string> sweepSchemeNames();

/**
 * Execute the full campaign on opt.jobs worker threads; prints one
 * progress line per run (interleaved across workers when jobs > 1 —
 * only the line order varies, never the results). Workloads whose
 * baseline point failed are dropped with a warning, since nothing
 * can be normalized against them. Throws killi::Error on an unknown
 * scheme name and when no workload's baseline completed (unless the
 * campaign was cancelled).
 */
SweepResult runEvaluationSweep(const SweepOptions &opt);

/**
 * Machine-readable form of a finished sweep: options, campaign
 * report, and the full per-point RunResults.
 */
Json sweepToJson(const SweepOptions &opt, const SweepResult &result);

/**
 * Write sweepToJson() (plus the binary's effective options under
 * "options") to opt.jsonPath. No-op when the path is empty. When the
 * sweep ran with statsInterval > 0, additionally writes the combined
 * per-point stat timeseries to opt.timeseriesPath (see
 * timeseriesToJson() for the schema).
 */
void writeSweepJson(const Options &opts, const SweepOptions &opt,
                    const SweepResult &result);

/**
 * The combined stat-timeseries document: {"interval", "workloads":
 * [{"workload", "points": [{"scheme", "timeseries"}, ...]}, ...]}
 * where each "timeseries" is a StatTimeseries::toJson() table. The
 * baseline point appears as scheme "baseline".
 */
Json timeseriesToJson(const SweepOptions &opt,
                      const SweepResult &result);

} // namespace killi

#endif // KILLI_BENCH_SWEEP_HH

#include "bench/sweep.hh"

#include <algorithm>
#include <atomic>
#include <cctype>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <functional>
#include <memory>
#include <sstream>

#include "analysis/area.hh"
#include "baselines/precharacterized.hh"
#include "common/log.hh"
#include "fault/fault_map.hh"
#include "fault/fault_model.hh"
#include "fault/voltage_model.hh"
#include "killi/killi.hh"
#include "trace/trace.hh"

namespace killi
{

namespace
{

constexpr std::size_t kKilliRatios[] = {256, 128, 64, 32, 16};

/** LV-vulnerable bits per L2 line: the fault map's line width. */
constexpr std::size_t kL2LineBits = 720;

/** Static description of one scheme column. */
struct SchemeSpec
{
    std::string name;
    double areaOverheadFrac;
    std::string powerKey;
    /** Build a fresh protection instance against @p faults. */
    std::function<std::unique_ptr<ProtectionScheme>(const FaultMap &)>
        make;
};

std::vector<SchemeSpec>
schemeSpecs()
{
    std::vector<SchemeSpec> specs;
    specs.push_back(
        {"DECTED", area::baseline(CodeKind::Dected).pctOverL2 / 100.0,
         "dected",
         [](const FaultMap &faults) -> std::unique_ptr<ProtectionScheme> {
             return makeDectedLine(faults);
         }});
    specs.push_back(
        {"FLAIR", area::baseline(CodeKind::Secded).pctOverL2 / 100.0,
         "flair",
         [](const FaultMap &faults) -> std::unique_ptr<ProtectionScheme> {
             return makeFlair(faults);
         }});
    specs.push_back(
        {"MS-ECC", area::baseline(CodeKind::Olsc11).pctOverL2 / 100.0,
         "msecc",
         [](const FaultMap &faults) -> std::unique_ptr<ProtectionScheme> {
             return makeMsEcc(faults);
         }});
    for (const std::size_t ratio : kKilliRatios) {
        specs.push_back(
            {"Killi 1:" + std::to_string(ratio),
             area::killi(ratio).pctOverL2 / 100.0, "killi",
             [ratio](const FaultMap &faults)
                 -> std::unique_ptr<ProtectionScheme> {
                 KilliParams kp;
                 kp.ratio = ratio;
                 return std::make_unique<KilliProtection>(faults, kp);
             }});
    }
    return specs;
}

/** A numeric member constrained to [lo, hi]. */
double
numberIn(const Json &value, const char *key, double lo, double hi)
{
    if (!value.isNumber())
        throwError("\"%s\" must be a number", key);
    const double d = value.asDouble();
    if (!(d >= lo && d <= hi))
        throwError("\"%s\" must be in [%g, %g]", key, lo, hi);
    return d;
}

/** A non-negative integral member bounded by @p hi. */
std::uint64_t
uintIn(const Json &value, const char *key, std::uint64_t hi)
{
    if (!value.isNumber())
        throwError("\"%s\" must be a number", key);
    const double d = value.asDouble();
    if (!(d >= 0) || d != std::floor(d) || d > double(hi))
        throwError("\"%s\" must be an integer in [0, %llu]", key,
                   static_cast<unsigned long long>(hi));
    return std::uint64_t(d);
}

/** Accept either a comma-separated string or an array of strings. */
std::vector<std::string>
nameList(const Json &value, const char *key)
{
    if (value.kind() == Json::Kind::String)
        return splitNameList(value.asString());
    if (value.kind() != Json::Kind::Array)
        throwError("\"%s\" must be a comma-separated string or an "
                   "array of strings",
                   key);
    std::vector<std::string> out;
    for (std::size_t i = 0; i < value.size(); ++i) {
        if (value.at(i).kind() != Json::Kind::String)
            throwError("\"%s\" array members must be strings", key);
        out.push_back(value.at(i).asString());
    }
    return out;
}

/** Check every name in @p got, then expand an empty list to
 *  @p known. */
void
resolveNames(std::vector<std::string> &got,
             const std::vector<std::string> &known, const char *what)
{
    for (const std::string &name : got) {
        if (std::find(known.begin(), known.end(), name) ==
            known.end()) {
            std::string all;
            for (const std::string &k : known)
                all += (all.empty() ? "" : ", ") + k;
            throwError("unknown %s '%s' (known: %s)", what,
                       name.c_str(), all.c_str());
        }
    }
    if (got.empty())
        got = known;
}

/** Filesystem-safe stem for a sweep point's trace file. */
std::string
pointFileStem(const std::string &wlName, const SchemeSpec *scheme)
{
    std::string stem =
        wlName + "_" + (scheme ? scheme->name : "baseline");
    for (char &c : stem) {
        if (!std::isalnum(static_cast<unsigned char>(c)) &&
            c != '-' && c != '.')
            c = '_';
    }
    return stem;
}

/**
 * Execute one isolated sweep point. Everything stateful — the
 * protection scheme, the workload instance, the GPU system, the
 * trace sink — is constructed here, inside the job, so concurrent
 * points share nothing mutable (see the gpu_system.hh
 * thread-confinement contract). @p faults is the campaign's one
 * activated map, which every point only reads.
 *
 * @param seriesOut receives the point's StatTimeseries as JSON when
 *        opt.statsInterval > 0 (untouched otherwise); may be null.
 */
RunResult
runPoint(const SweepOptions &opt, const FaultMap &faults,
         const std::string &wlName, const SchemeSpec *scheme,
         Json *seriesOut)
{
    GpuParams gp;
    gp.statsInterval = opt.statsInterval;
    const auto wl = makeWorkload(wlName, opt.scale);

    TraceSink sink;
    if (!opt.trace.empty()) {
        std::uint32_t mask = 0;
        // Already validated by sweepOptions() or
        // decodeSweepOptions(); cannot fail here.
        parseTraceCats(opt.trace, mask);
        sink.setMask(mask);
        gp.l2.trace = &sink;
    }

    std::unique_ptr<ProtectionScheme> prot;
    FaultFreeProtection baseline;
    ProtectionScheme *active = &baseline;
    if (scheme) {
        prot = scheme->make(faults);
        active = prot.get();
    }
    GpuSystem sys(gp, *active, *wl);
    if (opt.onProgress && opt.statsInterval) {
        // Stream every periodic snapshot to the observer (the
        // serving daemon forwards them as client progress frames).
        // Observation only: the accumulated series and the simulated
        // events are untouched, so tapped and untapped runs stay
        // bit-identical.
        const std::string point =
            wlName + "/" + (scheme ? scheme->name : "baseline");
        const auto &cols = sys.timeseries().columnNames();
        std::size_t instrCol = cols.size();
        for (std::size_t c = 0; c < cols.size(); ++c) {
            if (cols[c] == "instructions")
                instrCol = c;
        }
        sys.timeseries().setOnSample(
            [&opt, point, instrCol](Tick now,
                                    const std::vector<double> &row) {
                SweepProgress p;
                p.point = point;
                p.tick = now;
                if (instrCol < row.size())
                    p.instructions = std::uint64_t(row[instrCol]);
                opt.onProgress(p);
            });
    }
    const RunResult result = sys.run(opt.warmupPasses);
    if (!opt.trace.empty() && !opt.traceDir.empty()) {
        const std::string path = opt.traceDir + "/" +
            pointFileStem(wlName, scheme) + ".trace.json";
        writeJsonFile(path, sink.chromeTraceJson());
    }
    if (seriesOut && opt.statsInterval)
        *seriesOut = sys.timeseries().toJson();
    // Through the thread-safe logger, not raw stderr: concurrent
    // sweep points (jobs > 1) must never interleave mid-line.
    inform("  %-8s %-12s %12llu cycles", wlName.c_str(),
           scheme ? scheme->name.c_str() : "baseline",
           static_cast<unsigned long long>(result.cycles));
    return result;
}

} // namespace

std::vector<std::string>
splitNameList(const std::string &list)
{
    std::vector<std::string> out;
    std::stringstream ss(list);
    std::string token;
    while (std::getline(ss, token, ',')) {
        if (!token.empty())
            out.push_back(token);
    }
    return out;
}

void
declareSweepRequestOptions(Options &opts, double defaultScale)
{
    opts.add<double>("scale", defaultScale,
                     "workload length multiplier")
        .range(0.001, 1000.0);
    opts.add<unsigned>("warmup", 2u,
                       "warmup passes excluded from stats")
        .range(0u, 16u);
    opts.add("scenario", "",
             "fault scenario: path to a killi-scenario-v1 JSON file "
             "or inline JSON (see SCENARIOS.md); empty runs the "
             "default iid scenario");
    opts.add<double>("voltage", 0.625,
                     "normalized L2 supply (overrides the scenario's "
                     "voltage)")
        .range(0.5, 1.0);
    opts.add<std::uint64_t>("seed", std::uint64_t{42},
                            "fault-map die seed (overrides the "
                            "scenario's seed)");
    opts.add("workloads", "",
             "comma-separated workload subset (default: all ten)");
    opts.add("schemes", "",
             "comma-separated scheme subset, e.g. "
             "'DECTED,Killi 1:256' (default: all)");
    opts.add<std::uint64_t>("stats-interval", std::uint64_t{0},
                            "cycles between periodic stat snapshots "
                            "(0 disables the timeseries)");
}

SweepOptions
sweepRequestOptions(const Options &opts)
{
    SweepOptions opt;
    opt.scale = opts.get<double>("scale");
    opt.warmupPasses = opts.get<unsigned>("warmup");
    const std::string scenarioText =
        opts.get<std::string>("scenario");
    if (!scenarioText.empty())
        opt.scenario = ScenarioSpec::fromString(scenarioText);
    opt.workloads = splitNameList(opts.get<std::string>("workloads"));
    opt.schemes = splitNameList(opts.get<std::string>("schemes"));
    opt.statsInterval =
        Cycle(opts.get<std::uint64_t>("stats-interval"));
    // voltage=/seed= override the scenario's voltage/seed only
    // when explicitly set, so a scenario= document keeps its own.
    try {
        resolveSweepOptions(
            opt,
            opts.has("voltage")
                ? std::optional<double>(opts.get<double>("voltage"))
                : std::nullopt,
            opts.has("seed") ? std::optional<std::uint64_t>(
                                   opts.get<std::uint64_t>("seed"))
                             : std::nullopt);
    } catch (const Error &e) {
        fatal("sweep: %s", e.what());
    }
    return opt;
}

void
declareSweepOptions(Options &opts, const std::string &benchName,
                    double defaultScale)
{
    declareSweepRequestOptions(opts, defaultScale);
    opts.add<unsigned>("jobs", 1u,
                       "concurrent sweep points (0 = all hardware "
                       "threads; results are identical at any value)")
        .range(0u, 1024u);
    opts.add<unsigned>("retries", 1u,
                       "extra attempts before a failed sweep point "
                       "is skipped")
        .range(0u, 10u);
    opts.add("json", "results/" + benchName + ".json",
             "machine-readable results path (empty string disables)");
    opts.add("trace", "",
             "trace categories recorded per sweep point (e.g. "
             "dfh,ecc,l2 or all; empty disables tracing)");
    opts.add("trace-dir", "results/trace",
             "directory for per-point Chrome trace_event files "
             "(Perfetto-loadable; empty string disables)");
    opts.add("timeseries",
             "results/" + benchName + ".timeseries.json",
             "combined stat-timeseries path, written when "
             "stats-interval > 0 (empty string disables)");
}

SweepOptions
sweepOptions(const Options &opts)
{
    SweepOptions opt = sweepRequestOptions(opts);
    opt.jobs = opts.get<unsigned>("jobs");
    opt.retries = opts.get<unsigned>("retries");
    opt.jsonPath = opts.get<std::string>("json");
    opt.trace = opts.get<std::string>("trace");
    opt.traceDir = opts.get<std::string>("trace-dir");
    opt.timeseriesPath = opts.get<std::string>("timeseries");
    if (!opt.trace.empty()) {
        // Reject a bad category list before the campaign starts, not
        // from inside a worker thread.
        std::uint32_t mask = 0;
        std::string err;
        if (!parseTraceCats(opt.trace, mask, &err))
            fatal("sweep: %s", err.c_str());
    }
    return opt;
}

Json
encodeSweepOptions(const SweepOptions &opt, SweepWire wire)
{
    Json doc = Json::object();
    doc.set("scale", Json::number(opt.scale));
    doc.set("warmup", Json::number(std::uint64_t(opt.warmupPasses)));
    doc.set("stats_interval",
            Json::number(std::uint64_t(opt.statsInterval)));
    doc.set("scenario", opt.scenario.toJson());
    doc.set("workloads", Json::stringArray(opt.workloads));
    doc.set("schemes", Json::stringArray(opt.schemes));
    if (wire == SweepWire::Submit)
        doc.set("retries", Json::number(std::uint64_t(opt.retries)));
    else
        doc.set("trace", Json::string(opt.trace));
    return doc;
}

SweepOptions
decodeSweepOptions(const Json &doc, SweepWire wire)
{
    if (doc.kind() != Json::Kind::Object)
        throwError("\"options\" must be an object");
    const bool recording = wire == SweepWire::Recording;
    if (recording) {
        for (const char *key :
             {"scale", "warmup", "stats_interval", "scenario",
              "workloads", "schemes", "trace"}) {
            if (!doc.contains(key))
                throwError("\"%s\" is missing", key);
        }
    }
    SweepOptions out;
    // Collected first, resolved after the loop: members may arrive
    // in any order, but resolution must be deterministic (scenario
    // first, overrides on top).
    std::optional<double> voltage;
    std::optional<std::uint64_t> seed;
    for (const auto &[key, v] : doc.members()) {
        if (key == "scale") {
            out.scale = numberIn(v, "scale", 0.001, 1000.0);
        } else if (key == "warmup") {
            out.warmupPasses = unsigned(uintIn(v, "warmup", 16));
        } else if (key == "stats_interval") {
            out.statsInterval = Cycle(
                uintIn(v, "stats_interval", std::uint64_t(1) << 53));
        } else if (key == "scenario") {
            // Object or inline-JSON string; file paths are a
            // client-side concern (the daemon never reads them).
            if (v.kind() == Json::Kind::Object)
                out.scenario = ScenarioSpec::fromJson(v);
            else if (v.kind() == Json::Kind::String &&
                     !v.asString().empty() &&
                     v.asString().front() == '{')
                out.scenario = ScenarioSpec::fromString(v.asString());
            else
                throwError("\"scenario\" must be a scenario object or "
                           "an inline-JSON string (resolve file paths "
                           "client-side)");
        } else if (key == "workloads") {
            out.workloads = nameList(v, "workloads");
        } else if (key == "schemes") {
            out.schemes = nameList(v, "schemes");
        } else if (!recording && key == "voltage") {
            voltage = numberIn(v, "voltage", 0.5, 1.0);
        } else if (!recording && key == "seed") {
            seed = uintIn(v, "seed", std::uint64_t(1) << 53);
        } else if (!recording && key == "retries") {
            out.retries = unsigned(uintIn(v, "retries", 10));
        } else if (recording && key == "trace") {
            if (v.kind() != Json::Kind::String)
                throwError("\"trace\" must be a string");
            std::uint32_t mask = 0;
            std::string err;
            if (!parseTraceCats(v.asString(), mask, &err))
                throwError("%s", err.c_str());
            out.trace = v.asString();
            // A replayed run checks trace digests; it writes no
            // per-point trace files.
            out.traceDir.clear();
        } else {
            throwError("unknown option \"%s\"", key.c_str());
        }
    }
    resolveSweepOptions(out, voltage, seed);
    return out;
}

void
resolveSweepOptions(SweepOptions &opt, std::optional<double> voltage,
                    std::optional<std::uint64_t> seed)
{
    if (voltage)
        opt.scenario.voltage = *voltage;
    if (seed)
        opt.scenario.seed = *seed;
    opt.voltage = FaultModel::fromScenario(opt.scenario)
                      ->voltageSchedule()
                      .front();
    opt.seed = opt.scenario.seed;
    resolveNames(opt.workloads, workloadNames(), "workload");
    resolveNames(opt.schemes, sweepSchemeNames(), "scheme");
}

std::vector<std::string>
sweepSchemeNames()
{
    std::vector<std::string> names;
    for (const SchemeSpec &spec : schemeSpecs())
        names.push_back(spec.name);
    return names;
}

SweepResult
runEvaluationSweep(const SweepOptions &opt)
{
    // Resolve the scheme columns (validated against the subset knob).
    std::vector<SchemeSpec> specs = schemeSpecs();
    if (!opt.schemes.empty()) {
        std::vector<SchemeSpec> subset;
        for (const std::string &want : opt.schemes) {
            bool found = false;
            for (const SchemeSpec &spec : specs) {
                if (spec.name == want) {
                    subset.push_back(spec);
                    found = true;
                    break;
                }
            }
            if (!found) {
                std::string known;
                for (const SchemeSpec &spec : specs)
                    known += (known.empty() ? "" : ", ") + spec.name;
                throwError("sweep: unknown scheme '%s' (known: %s)",
                           want.c_str(), known.c_str());
            }
        }
        specs = std::move(subset);
    }

    const std::unique_ptr<FaultModel> model =
        FaultModel::fromScenario(opt.scenario);
    // The campaign's fault map; set below, once the workload names
    // are validated and before any job runs.
    std::unique_ptr<const FaultMap> faults;

    SweepResult out;
    out.workloads.resize(opt.workloads.size());

    // Pre-size every result slot so jobs write only into memory they
    // exclusively own — the campaign result is then independent of
    // scheduling order by construction.
    std::vector<Job> jobs;
    for (std::size_t wi = 0; wi < opt.workloads.size(); ++wi) {
        const std::string wlName = opt.workloads[wi];
        WorkloadSweep &sweep = out.workloads[wi];
        sweep.workload = wlName;
        // Validates the name (fatal on a typo) before the campaign
        // starts, and records the Fig. 5 panel grouping.
        sweep.memoryBound = makeWorkload(wlName, opt.scale)
                                ->memoryBound();
        sweep.schemes.resize(specs.size());

        jobs.push_back({wlName + "/baseline",
                        [&opt, &faults, &sweep, wlName] {
                            sweep.baseline = runPoint(
                                opt, *faults, wlName, nullptr,
                                &sweep.baselineTimeseries);
                            sweep.baselineOk = true;
                        }});
        for (std::size_t si = 0; si < specs.size(); ++si) {
            SchemeRun &slot = sweep.schemes[si];
            const SchemeSpec &spec = specs[si];
            slot.scheme = spec.name;
            slot.areaOverheadFrac = spec.areaOverheadFrac;
            slot.powerKey = spec.powerKey;
            jobs.push_back(
                {wlName + "/" + spec.name,
                 [&opt, &faults, &slot, &spec, wlName] {
                     slot.result = runPoint(opt, *faults, wlName,
                                            &spec, &slot.timeseries);
                     slot.ok = true;
                 }});
        }
    }

    // Every point of the campaign instantiates the same scenario on
    // the same L2 geometry, so they share one die: taken from the
    // embedder's warm source when it has it, otherwise sampled here,
    // once, before any point runs. Adoption is bit-identical to
    // sampling (FaultModel::buildMapFrom()'s contract). No point
    // writes the map, so the die is activated once, too, and the die
    // needs only the cells the model's schedule can activate.
    const std::size_t numLines = GpuParams{}.l2Geom.numLines();
    const double cover = model->coverFor(model->voltageSchedule());
    std::shared_ptr<const FaultPopulation> die;
    if (opt.warmFaultSource)
        die = opt.warmFaultSource(*model, numLines, kL2LineBits);
    if (!die)
        die = model->sample(numLines, kL2LineBits, cover);
    faults = model->buildMapFrom(std::move(die), kL2LineBits, cover);

    // Jobs append trace files concurrently; create the directory
    // once, up front, instead of racing create_directories in every
    // worker.
    if (!opt.trace.empty() && !opt.traceDir.empty()) {
        std::error_code ec;
        std::filesystem::create_directories(opt.traceDir, ec);
        if (ec)
            throwError("sweep: cannot create directory '%s': %s",
                       opt.traceDir.c_str(), ec.message().c_str());
    }

    // Point-completion progress: wrap each job so the observer sees
    // a done/total tally maintained across concurrent workers.
    std::atomic<std::size_t> pointsDone{0};
    if (opt.onProgress) {
        const std::size_t total = jobs.size();
        for (Job &job : jobs) {
            const auto inner = std::move(job.work);
            const std::string pointName = job.name;
            job.work = [&opt, &pointsDone, total, pointName, inner] {
                inner();
                SweepProgress p;
                p.point = pointName;
                p.pointDone = true;
                p.pointsDone =
                    pointsDone.fetch_add(1,
                                         std::memory_order_relaxed) +
                    1;
                p.pointsTotal = total;
                opt.onProgress(p);
            };
        }
    }

    RunnerOptions ropt;
    ropt.jobs = opt.jobs;
    ropt.retries = opt.retries;
    ropt.cancel = opt.cancel;
    ExperimentRunner runner(ropt);
    out.campaign = runner.run(jobs);
    out.campaign.warnOnFailures();

    // A workload without its baseline cannot be normalized; drop it
    // rather than divide by zero in every table.
    for (auto it = out.workloads.begin(); it != out.workloads.end();) {
        if (!it->baselineOk) {
            warn("sweep: dropping workload '%s' (baseline point "
                 "failed)",
                 it->workload.c_str());
            it = out.workloads.erase(it);
        } else {
            ++it;
        }
    }
    if (out.workloads.empty()) {
        // A cancelled campaign legitimately ends with nothing
        // completed; that is a job outcome for the embedder (the
        // serving daemon reports "cancelled"), not a config error.
        if (opt.cancel && opt.cancel->cancelled()) {
            warn("sweep: campaign cancelled before any baseline "
                 "point completed");
            return out;
        }
        throwError("sweep: no workload completed its baseline point");
    }
    return out;
}

Json
sweepToJson(const SweepOptions &opt, const SweepResult &result)
{
    Json sweepObj = Json::object();
    sweepObj.set("scale", Json::number(opt.scale));
    sweepObj.set("warmup", Json::number(std::int64_t(opt.warmupPasses)));
    sweepObj.set("voltage", Json::number(opt.voltage));
    sweepObj.set("seed", Json::number(std::uint64_t(opt.seed)));
    sweepObj.set("jobs", Json::number(std::int64_t(opt.jobs)));
    sweepObj.set("scenario", opt.scenario.toJson());

    Json workloadArray = Json::array();
    for (const WorkloadSweep &sweep : result.workloads) {
        Json wlObj = Json::object();
        wlObj.set("workload", Json::string(sweep.workload));
        wlObj.set("memory_bound", Json::boolean(sweep.memoryBound));
        wlObj.set("baseline", sweep.baseline.toJson());
        Json schemeArray = Json::array();
        for (const SchemeRun &run : sweep.schemes) {
            Json runObj = Json::object();
            runObj.set("scheme", Json::string(run.scheme));
            runObj.set("ok", Json::boolean(run.ok));
            runObj.set("area_overhead_frac",
                       Json::number(run.areaOverheadFrac));
            runObj.set("power_key", Json::string(run.powerKey));
            if (run.ok) {
                runObj.set("result", run.result.toJson());
                runObj.set("normalized_time",
                           Json::number(
                               double(run.result.cycles) /
                               double(sweep.baseline.cycles)));
            }
            schemeArray.push(std::move(runObj));
        }
        wlObj.set("schemes", std::move(schemeArray));
        workloadArray.push(std::move(wlObj));
    }

    Json doc = Json::object();
    doc.set("sweep", std::move(sweepObj));
    doc.set("workloads", std::move(workloadArray));
    doc.set("campaign", result.campaign.toJson());
    return doc;
}

Json
timeseriesToJson(const SweepOptions &opt, const SweepResult &result)
{
    Json doc = Json::object();
    doc.set("interval",
            Json::number(std::uint64_t(opt.statsInterval)));
    Json workloadArray = Json::array();
    for (const WorkloadSweep &sweep : result.workloads) {
        Json wlObj = Json::object();
        wlObj.set("workload", Json::string(sweep.workload));
        Json points = Json::array();
        Json base = Json::object();
        base.set("scheme", Json::string("baseline"));
        base.set("timeseries", sweep.baselineTimeseries);
        points.push(std::move(base));
        for (const SchemeRun &run : sweep.schemes) {
            if (!run.ok)
                continue;
            Json pt = Json::object();
            pt.set("scheme", Json::string(run.scheme));
            pt.set("timeseries", run.timeseries);
            points.push(std::move(pt));
        }
        wlObj.set("points", std::move(points));
        workloadArray.push(std::move(wlObj));
    }
    doc.set("workloads", std::move(workloadArray));
    return doc;
}

void
writeSweepJson(const Options &opts, const SweepOptions &opt,
               const SweepResult &result)
{
    if (!opt.jsonPath.empty()) {
        Json doc = Json::object();
        doc.set("bench", Json::string(opts.program()));
        doc.set("options", opts.toJson());
        const Json body = sweepToJson(opt, result);
        for (const auto &[key, value] : body.members())
            doc.set(key, value);
        writeJsonFile(opt.jsonPath, doc);
        inform("wrote %s", opt.jsonPath.c_str());
    }
    if (opt.statsInterval && !opt.timeseriesPath.empty()) {
        writeJsonFile(opt.timeseriesPath,
                      timeseriesToJson(opt, result));
        inform("wrote %s", opt.timeseriesPath.c_str());
    }
}

} // namespace killi

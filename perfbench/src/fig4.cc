/**
 * @file
 * fig4-sweep: the Fig. 4 campaign in-process through
 * runEvaluationSweep — every proxy under the fault-free baseline and
 * every LV scheme, on one shared iid die at 0.625 V.
 *
 * Set-up synthesizes the die (the fault layer's only work here); the
 * timed phase repeats whole campaigns that adopt it. The traced run
 * alternates an untraced campaign with the same campaign rebuilt from
 * the public point seams (FaultModel::buildMapFrom, makeWorkload, the
 * scheme factories, GpuSystem::run) with TimedProtection and
 * TimedWorkload in place, and requires every point's RunResult to
 * match the untraced campaign's.
 */

#include <unistd.h>

#include <memory>

#include "baselines/precharacterized.hh"
#include "bench/sweep.hh"
#include "common/rng.hh"
#include "decorators.hh"
#include "ecc/bch.hh"
#include "ecc/olsc.hh"
#include "ecc/parity.hh"
#include "ecc/secded.hh"
#include "fault/fault_model.hh"
#include "killi/killi.hh"
#include "stamp.hh"
#include "workloads.hh"

using namespace killi;

namespace perfbench
{

namespace
{

/** Workload length multiplier and warm-up passes of every point. */
constexpr double kScale = 0.05;
constexpr unsigned kWarmup = 2;

/** The L2 the sweep simulates: 32K lines of 512 data + 208 LV bits. */
constexpr std::size_t kLines = 32768;
constexpr std::size_t kLineBits = 720;

using Population =
    std::shared_ptr<const std::vector<std::vector<FaultCell>>>;

SweepOptions
campaignOptions(const RunConfig &cfg, const Population &die)
{
    SweepOptions opt;
    opt.scale = kScale;
    opt.warmupPasses = kWarmup;
    opt.scenario.seed = cfg.seed;
    opt.seed = cfg.seed;
    opt.jobs = cfg.threads;
    opt.workloads = killi::workloadNames();
    opt.schemes = sweepSchemeNames();
    // The set-up die, adopted by every point (what share-die=1 does
    // inside a campaign, hoisted out of the timed phase).
    opt.warmFaultSource = [die](const FaultModel &, std::size_t lines,
                                std::size_t bits) -> Population {
        return lines == kLines && bits == kLineBits ? die : nullptr;
    };
    return opt;
}

/** The scheme a sweep column name stands for (mirrors sweep.cc). */
std::unique_ptr<ProtectionScheme>
makeScheme(const std::string &name, FaultMap &faults)
{
    if (name == "DECTED")
        return makeDectedLine(faults);
    if (name == "FLAIR")
        return makeFlair(faults);
    if (name == "MS-ECC")
        return makeMsEcc(faults);
    const std::string killiPrefix = "Killi 1:";
    if (name.rfind(killiPrefix, 0) == 0) {
        KilliParams kp;
        kp.ratio = std::stoul(name.substr(killiPrefix.size()));
        return std::make_unique<KilliProtection>(faults, kp);
    }
    return nullptr;
}

/** One sweep point's slot in the campaign order. */
struct PointId
{
    std::size_t workload;
    /** Index into opt.schemes; npos for the baseline point. */
    std::size_t scheme;
};

std::vector<PointId>
campaignPoints(const SweepOptions &opt)
{
    std::vector<PointId> ids;
    for (std::size_t w = 0; w < opt.workloads.size(); ++w) {
        ids.push_back({w, std::string::npos});
        for (std::size_t s = 0; s < opt.schemes.size(); ++s)
            ids.push_back({w, s});
    }
    return ids;
}

const RunResult *
untracedResult(const SweepResult &res, const PointId &id)
{
    if (id.workload >= res.workloads.size())
        return nullptr;
    const WorkloadSweep &ws = res.workloads[id.workload];
    if (id.scheme == std::string::npos)
        return ws.baselineOk ? &ws.baseline : nullptr;
    const SchemeRun &run = ws.schemes[id.scheme];
    return run.ok ? &run.result : nullptr;
}

/** What one traced point measured. */
struct PointTrace
{
    bool ok = false;
    std::string error;
    RunResult result;
    bool killiFamily = false;
    bool baselinesFamily = false;
    HookTally hooks;
    std::uint64_t adoptNs = 0;
    std::uint64_t setupNs = 0;
    std::uint64_t runNs = 0;
    std::uint64_t opNs = 0;
    std::uint64_t opCalls = 0;
    /** Seconds from campaign start to the point's start. */
    double waitS = 0;
};

PointTrace
tracedPoint(const SweepOptions &opt, const Population &die,
            const std::string &wlName, const std::string *scheme)
{
    PointTrace pt;
    const Clock::time_point t0 = Clock::now();
    const std::unique_ptr<FaultModel> model =
        FaultModel::fromScenario(opt.scenario);
    const std::unique_ptr<FaultMap> faults =
        model->buildMapFrom(*die, kLineBits);
    const Clock::time_point t1 = Clock::now();

    const std::unique_ptr<Workload> wl =
        makeWorkload(wlName, opt.scale);
    TimedWorkload timedWl(*wl);
    std::unique_ptr<ProtectionScheme> prot;
    FaultFreeProtection baseline;
    ProtectionScheme *active = &baseline;
    if (scheme) {
        prot = makeScheme(*scheme, *faults);
        if (!prot) {
            pt.error = "no traced mirror for scheme '" + *scheme + "'";
            return pt;
        }
        active = prot.get();
        pt.killiFamily = dynamic_cast<KilliProtection *>(active);
        pt.baselinesFamily = !pt.killiFamily;
    }
    TimedProtection timedProt(*active);
    GpuParams gp;
    gp.statsInterval = opt.statsInterval;
    GpuSystem sys(gp, timedProt, timedWl);
    const Clock::time_point t2 = Clock::now();
    pt.result = sys.run(opt.warmupPasses);
    const Clock::time_point t3 = Clock::now();

    pt.ok = true;
    pt.hooks = timedProt.tally();
    pt.adoptNs = nsBetween(t0, t1);
    pt.setupNs = nsBetween(t1, t2);
    pt.runNs = nsBetween(t2, t3);
    pt.opNs = timedWl.opNs();
    pt.opCalls = timedWl.opCalls();
    return pt;
}

/** The campaign of @p opt, point by point, through the decorators. */
std::vector<PointTrace>
tracedCampaign(const SweepOptions &opt, const Population &die)
{
    const std::vector<PointId> ids = campaignPoints(opt);
    std::vector<PointTrace> slots(ids.size());
    std::vector<Job> jobs;
    const Clock::time_point c0 = Clock::now();
    for (std::size_t i = 0; i < ids.size(); ++i) {
        const PointId id = ids[i];
        const std::string &wl = opt.workloads[id.workload];
        const std::string *scheme = id.scheme == std::string::npos
            ? nullptr
            : &opt.schemes[id.scheme];
        jobs.push_back({wl + "/" + (scheme ? *scheme : "baseline"),
                        [&, i, scheme, wl] {
                            const double waitS = secondsSince(c0);
                            slots[i] = tracedPoint(opt, die, wl, scheme);
                            slots[i].waitS = waitS;
                        }});
    }
    RunnerOptions ropt;
    ropt.jobs = opt.jobs;
    ropt.retries = opt.retries;
    ropt.verbose = false;
    ExperimentRunner(ropt).run(jobs);
    return slots;
}

/**
 * Median per-call ns of @p fn over 5 repetitions, each calling it in
 * batches until at least 20 ms have passed (the codecs span 20 ns to
 * several us per call).
 */
template <typename Fn>
double
perCallNs(Fn &&fn)
{
    constexpr std::uint64_t kMinRepNs = 20'000'000;
    std::vector<double> reps;
    for (int r = 0; r < 5; ++r) {
        std::uint64_t calls = 0;
        std::uint64_t ns = 0;
        const Clock::time_point t0 = Clock::now();
        while (ns < kMinRepNs) {
            for (int i = 0; i < 64; ++i)
                fn();
            calls += 64;
            ns = nsBetween(t0, Clock::now());
        }
        reps.push_back(double(ns) / double(calls));
    }
    return median(reps);
}

volatile std::uint64_t gSink = 0;

/** Per-call cost of the public codec entry points on 512-bit lines. */
void
codecCosts(MetricSet &m, std::uint64_t seed)
{
    Rng rng(seed);
    BitVec data(512);
    data.randomize(rng);

    const Secded secded(512);
    BitVec secdedCheck(secded.checkBits());
    m.set("ecc.secded_encode_ns", perCallNs([&] {
              secded.encodeInto(data, secdedCheck);
              gSink = gSink ^ secdedCheck.word(0);
          }));
    secded.encodeInto(data, secdedCheck);
    m.set("ecc.secded_decode_ns", perCallNs([&] {
              gSink = gSink ^ unsigned(secded.decode(data, secdedCheck)
                                           .status);
          }));

    const SegmentedParity parity(512, 16);
    BitVec parityBits(16);
    m.set("ecc.parity16_encode_ns", perCallNs([&] {
              parity.encodeInto(data, parityBits);
              gSink = gSink ^ parityBits.word(0);
          }));

    const Bch dected(512, 2, true);
    BitVec dectedCheck = dected.encode(data);
    m.set("ecc.dected_decode_ns", perCallNs([&] {
              gSink = gSink ^ unsigned(dected.decode(data, dectedCheck)
                                           .status);
          }));

    const Olsc olsc(512, 23, 11);
    BitVec olscCheck = olsc.encode(data);
    m.set("ecc.olsc_decode_ns", perCallNs([&] {
              gSink = gSink ^ unsigned(olsc.decode(data, olscCheck)
                                           .status);
          }));
}

/** Checks one untraced campaign; returns its point count. */
std::size_t
checkCampaign(const SweepResult &res, const SweepOptions &opt,
              WorkloadResult &out)
{
    const std::vector<PointId> ids = campaignPoints(opt);
    for (const PointId &id : ids) {
        ++out.ops;
        const RunResult *r = untracedResult(res, id);
        const std::string name = opt.workloads[id.workload] + "/" +
            (id.scheme == std::string::npos ? "baseline"
                                            : opt.schemes[id.scheme]);
        // Killi's reads may be corrupt inside the paper's 5.6.2
        // masked-fault window (EXPERIMENTS.md: "SDC oracle"); that is
        // a simulated result. The baseline and the pre-characterized
        // schemes must deliver golden data.
        const bool killiPoint = id.scheme != std::string::npos &&
            opt.schemes[id.scheme].rfind("Killi", 0) == 0;
        if (!r)
            out.fail("fig4 point " + name + " did not complete");
        else if (r->sdc != 0 && !killiPoint)
            out.fail("fig4 point " + name + " reported silent data "
                     "corruption");
    }
    return ids.size();
}

/** Per-campaign sums of the traced points' layer measurements. */
struct LayerSums
{
    HookTally killi, baselines, faultFree;
    std::uint64_t adoptNs = 0, setupNs = 0, runNs = 0;
    std::uint64_t opNs = 0, opCalls = 0, runCalls = 0;
    std::uint64_t cycles = 0, instructions = 0, l2Accesses = 0;
    std::uint64_t l2ReadHits = 0, l2Reads = 0, l2ErrorMisses = 0;
    std::uint64_t dramReads = 0;
    std::vector<double> waitMs;

    void add(const PointTrace &pt)
    {
        (pt.killiFamily ? killi
                        : pt.baselinesFamily ? baselines : faultFree)
            .merge(pt.hooks);
        adoptNs += pt.adoptNs;
        setupNs += pt.setupNs;
        runNs += pt.runNs;
        opNs += pt.opNs;
        opCalls += pt.opCalls;
        ++runCalls;
        const RunResult &r = pt.result;
        cycles += r.cycles;
        instructions += r.instructions;
        l2Accesses += r.l2Accesses();
        l2ReadHits += r.l2ReadHits;
        l2Reads += r.l2ReadHits + r.l2ReadMisses + r.l2ErrorMisses;
        l2ErrorMisses += r.l2ErrorMisses;
        dramReads += r.dramReads;
        waitMs.push_back(pt.waitS * 1e3);
    }
};

void
reportLayers(MetricSet &m, const LayerSums &s, double campaigns)
{
    const auto per = [campaigns](double v) { return v / campaigns; };
    const std::uint64_t hookNs = s.killi.totalNs() +
        s.baselines.totalNs() + s.faultFree.totalNs();
    m.set("fault.adopt_ns", per(double(s.adoptNs)));
    m.set("gpu.setup_ns", per(double(s.setupNs)));
    m.set("gpu.run_ns", per(double(s.runNs)));
    m.set("gpu.run_calls", per(double(s.runCalls)));
    m.set("gpu.op_ns", per(double(s.opNs)));
    m.set("gpu.op_calls", per(double(s.opCalls)));
    m.set("gpu.self_ns",
          per(double(s.runNs) - double(hookNs) - double(s.opNs)));
    // RunResult counts the measured pass only; the warm-up passes
    // replay the same workload, so every pass is charged its count.
    m.set("gpu.host_ns_per_l2_access",
          double(s.runNs) /
              (double(s.l2Accesses) * double(kWarmup + 1)),
          0, "host run time over l2 accesses x (warm-up passes + 1)");
    for (const auto &[family, tally] :
         {std::pair<const char *, const HookTally *>{"killi", &s.killi},
          {"baselines", &s.baselines}}) {
        for (std::size_t h = 0; h < kHookCount; ++h) {
            const std::string stem =
                std::string(family) + "." + hookName(Hook(h));
            m.set(stem + "_ns", per(double(tally->ns[h])));
            m.set(stem + "_calls", per(double(tally->calls[h])));
        }
        const std::uint64_t hits =
            tally->calls[std::size_t(Hook::ReadHit)];
        m.set(std::string(family) + ".read_hit_clean_frac",
              hits ? double(tally->readHitClean) / double(hits) : 0.0);
    }
    m.set("sim.cycles", per(double(s.cycles)));
    m.set("gpu.instructions", per(double(s.instructions)));
    m.set("cache.l2_accesses", per(double(s.l2Accesses)));
    m.set("cache.l2_read_hit_frac",
          s.l2Reads ? double(s.l2ReadHits) / double(s.l2Reads) : 0.0);
    m.set("cache.l2_error_misses", per(double(s.l2ErrorMisses)));
    m.set("cache.dram_reads", per(double(s.dramReads)));
    m.percentile("runner.wait_ms_p50", s.waitMs, 0.5);
}

/** The golden-scale campaign run.py diffs against the committed
 *  golden (tests/golden/fig4_smoke_seed42.json). */
void
writeGoldenCheck(const RunConfig &cfg)
{
    SweepOptions g;
    g.scale = 0.02;
    g.warmupPasses = 0;
    g.scenario.seed = 42;
    g.seed = 42;
    g.jobs = cfg.threads;
    g.shareDie = true;
    g.workloads = {"xsbench", "spmv"};
    g.schemes = {"DECTED", "Killi 1:256"};
    writeJsonFile(cfg.runDir + "/fig4_golden_check.json",
                  sweepToJson(g, runEvaluationSweep(g)));
}

} // namespace

WorkloadResult
runFig4Sweep(const RunConfig &cfg)
{
    WorkloadResult out;
    MetricSet &m = out.metrics;

    // Set-up: synthesize the shared die (median of kSetupReps).
    ScenarioSpec spec;
    spec.seed = cfg.seed;
    std::vector<double> setupS;
    std::uint64_t sampleNs = 0;
    Population die;
    for (int rep = 0; rep < kSetupReps; ++rep) {
        const Clock::time_point t0 = Clock::now();
        const std::unique_ptr<FaultModel> model =
            FaultModel::fromScenario(spec);
        die = std::make_shared<const std::vector<std::vector<FaultCell>>>(
            model->buildMap(kLines, kLineBits)->population());
        const Clock::time_point t1 = Clock::now();
        setupS.push_back(std::chrono::duration<double>(t1 - t0).count());
        sampleNs += nsBetween(t0, t1);
    }
    const SweepOptions opt = campaignOptions(cfg, die);

    // Timed phase: whole campaigns (paired with traced replicas when
    // tracing) until the time budget is spent.
    std::vector<double> pointMs, untracedWallS, tracedWallS;
    std::uint64_t points = 0, instructions = 0, retries = 0;
    double busyS = 0, threadS = 0;
    LayerSums sums;
    const Clock::time_point phase0 = Clock::now();
    while (untracedWallS.empty() || secondsSince(phase0) < cfg.seconds) {
        const Clock::time_point c0 = Clock::now();
        const SweepResult res = runEvaluationSweep(opt);
        untracedWallS.push_back(secondsSince(c0));
        points += checkCampaign(res, opt, out);
        for (const JobReport &job : res.campaign.jobs) {
            pointMs.push_back(job.seconds * 1e3);
            busyS += job.seconds;
            retries += job.attempts > 0 ? job.attempts - 1 : 0;
        }
        threadS += res.campaign.seconds * res.campaign.threads;
        for (const WorkloadSweep &ws : res.workloads) {
            instructions += ws.baseline.instructions;
            for (const SchemeRun &run : ws.schemes)
                instructions += run.result.instructions;
        }
        if (!cfg.trace)
            continue;

        const Clock::time_point c1 = Clock::now();
        const std::vector<PointTrace> traced = tracedCampaign(opt, die);
        tracedWallS.push_back(secondsSince(c1));
        const std::vector<PointId> ids = campaignPoints(opt);
        for (std::size_t i = 0; i < ids.size(); ++i) {
            ++out.ops;
            const RunResult *want = untracedResult(res, ids[i]);
            if (!traced[i].ok)
                out.fail("traced point failed: " + traced[i].error);
            else if (!want || want->toJson().toString(0) !=
                                  traced[i].result.toJson().toString(0))
                out.fail("traced point " + std::to_string(i) +
                         " RunResult differs from the untraced run");
            else
                sums.add(traced[i]);
        }
    }
    double wallS = 0;
    for (const double w : untracedWallS)
        wallS += w;

    m.set("setup_s", median(setupS), setupS.size(),
          "median of die syntheses");
    m.set("rss_mb", peakRssMb(getpid()));
    // Median over campaigns, so a burst of host contention during one
    // campaign does not move the figure.
    const double perCampaign = double(campaignPoints(opt).size());
    std::vector<double> campaignRate;
    for (const double w : untracedWallS)
        campaignRate.push_back(perCampaign / w);
    m.set("throughput_per_s", median(campaignRate), campaignRate.size(),
          "median over campaigns of sweep points per second");
    m.percentile("latency_ms", pointMs, 0.5);
    // Every pass retires the measured pass's instructions (ops are a
    // pure function of their coordinates), warm-up passes included.
    m.set("sim_minstr_per_s",
          double(instructions) * (kWarmup + 1) / 1e6 / wallS);
    m.set("points_per_s", double(points) / wallS);
    m.percentile("point_ms_p50", pointMs, 0.5);
    m.percentile("point_ms_p90", pointMs, 0.9);

    if (cfg.trace) {
        m.set("fault.sample_ns", double(sampleNs), 0,
              "set-up die syntheses");
        m.set("fault.sample_calls", double(kSetupReps));
        reportLayers(m, sums, double(tracedWallS.size()));
        codecCosts(m, cfg.seed);
        m.set("runner.busy_frac", busyS / threadS);
        m.set("runner.retries", double(retries));
        m.set("trace_overhead_frac",
              median(tracedWallS) / median(untracedWallS) - 1.0,
              tracedWallS.size(), "traced / untraced campaign wall - 1");
    }

    ++out.ops; // the golden comparison run.py makes
    writeGoldenCheck(cfg);
    return out;
}

} // namespace perfbench

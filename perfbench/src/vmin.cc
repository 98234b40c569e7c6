/**
 * @file
 * vmin-sweep: fig2/fig6-style voltage sweeps on the fault layer alone.
 *
 * Each round synthesizes one 32K-line x 720-bit die per scenario
 * class (iid, clustered, burst, droop), steps it down a voltage grid
 * with runVoltageSweep, and at every point runs the fig6 countFaults
 * classification predicates over every line. The three monotone
 * classes take the incremental path; droop visits the grid in a
 * seeded non-monotone order and takes the cold per-point path.
 *
 * Checks: active cells never shrink as a monotone die's voltage
 * falls, and sampled points re-derived cold (buildMapAt) give the
 * same per-line classification as the swept map.
 */

#include <malloc.h>
#include <unistd.h>

#include <algorithm>
#include <numeric>

#include "common/rng.hh"
#include "fault/fault_model.hh"
#include "fault/sweep_engine.hh"
#include "stamp.hh"
#include "workloads.hh"

using namespace killi;

namespace perfbench
{

namespace
{

constexpr std::size_t kLines = 32768;
constexpr std::size_t kLineBits = 720;
const char *const kClasses[] = {"iid", "clustered", "burst", "droop"};
constexpr std::size_t kClassCount = 4;
/** Sampled points re-derived cold after the timed phase. */
constexpr std::size_t kColdChecks = 4;

/** Descending grid 0.70 .. 0.50 in 0.02 steps (fig6's range). */
std::vector<double>
voltageGrid()
{
    std::vector<double> grid;
    for (int i = 0; i <= 10; ++i)
        grid.push_back(0.70 - 0.02 * i);
    return grid;
}

/** The fig6 classification of one operating point. */
struct PointStats
{
    std::size_t secdedOk = 0; //!< lines with <= 2 faults in 523 bits
    std::size_t msEccOk = 0;  //!< lines with <= 11 faults in 710 bits
    std::uint64_t activeCells = 0;
    /** Position-weighted sum of per-line active counts. */
    std::uint64_t digest = 0;

    bool operator==(const PointStats &o) const
    {
        return secdedOk == o.secdedOk && msEccOk == o.msEccOk &&
               activeCells == o.activeCells && digest == o.digest;
    }
};

PointStats
classify(const FaultMap &map)
{
    PointStats st;
    for (std::size_t l = 0; l < map.numLines(); ++l) {
        st.secdedOk += map.countFaults(l, 523) <= 2;
        st.msEccOk += map.countFaults(l, 710) <= 11;
        const std::size_t n = map.lineFaults(l).size();
        st.activeCells += n;
        st.digest += n * (l + 1);
    }
    return st;
}

struct DieSpec
{
    ScenarioSpec spec;
    std::vector<double> points;
};

DieSpec
dieSpec(std::uint64_t seed, std::size_t round, std::size_t cls)
{
    DieSpec d;
    d.spec.seed = (seed << 20) + round * kClassCount + cls;
    d.points = voltageGrid();
    const std::string model = kClasses[cls];
    if (model == "droop") {
        // A droop schedule over an iid population: the grid in a
        // seeded order that rises as well as falls.
        Rng rng(d.spec.seed);
        for (std::size_t i = d.points.size(); i > 1; --i)
            std::swap(d.points[i - 1], d.points[rng.next64() % i]);
        d.spec.model = "droop";
        d.spec.droop.base = "iid";
        d.spec.droop.schedule = d.points;
    } else {
        d.spec.model = model;
    }
    d.spec.voltage = d.points.front();
    return d;
}

/** One die's sweep as measured. */
struct DieRun
{
    std::size_t round = 0;
    std::size_t cls = 0;
    std::vector<PointStats> stats; //!< indexed like DieSpec::points
    std::uint64_t sampleNs = 0;    //!< call to first callback
    std::uint64_t stepNs = 0;      //!< gaps between callbacks
    std::uint64_t queryNs = 0;     //!< inside callbacks
    std::size_t steps = 0;
    std::size_t coldActivations = 0;
    double wallS = 0;
};

DieRun
sweepDie(const DieSpec &d, bool trace)
{
    DieRun run;
    run.stats.resize(d.points.size());
    const std::unique_ptr<FaultModel> model =
        FaultModel::fromScenario(d.spec);
    const Clock::time_point t0 = Clock::now();
    Clock::time_point lastEnd = t0;
    bool first = true;
    const VoltageSweepStats vs = runVoltageSweep(
        *model, kLines, kLineBits, d.points,
        [&](std::size_t idx, double, FaultMap &map) {
            const Clock::time_point q0 = Clock::now();
            if (first)
                run.sampleNs = nsBetween(t0, q0);
            else if (trace) {
                run.stepNs += nsBetween(lastEnd, q0);
                ++run.steps;
            }
            first = false;
            run.stats[idx] = classify(map);
            if (trace) {
                lastEnd = Clock::now();
                run.queryNs += nsBetween(q0, lastEnd);
            }
        });
    run.wallS = secondsSince(t0);
    run.coldActivations = vs.coldActivations;
    // Hand the die's freed heap back (untimed), so every sweep starts
    // from the same heap and the peak resident set is one die's, not
    // the allocator's history.
    malloc_trim(0);
    return run;
}

/** Active cells must not shrink as a monotone die's voltage falls. */
std::size_t
monotoneViolations(const DieSpec &d, const DieRun &run)
{
    if (d.spec.model == "droop")
        return 0;
    std::vector<std::size_t> order(d.points.size());
    std::iota(order.begin(), order.end(), std::size_t{0});
    std::sort(order.begin(), order.end(), [&](auto a, auto b) {
        return d.points[a] > d.points[b];
    });
    std::size_t bad = 0;
    for (std::size_t i = 1; i < order.size(); ++i)
        bad += run.stats[order[i]].activeCells <
               run.stats[order[i - 1]].activeCells;
    return bad;
}

} // namespace

WorkloadResult
runVminSweep(const RunConfig &cfg)
{
    WorkloadResult out;
    MetricSet &m = out.metrics;

    // Set-up: build the scenario models and sweep one small warm-up
    // die per class (allocator and sampler tables warm), kSetupReps
    // times.
    std::vector<double> setupS;
    for (int rep = 0; rep < kSetupReps; ++rep) {
        const Clock::time_point t0 = Clock::now();
        for (std::size_t c = 0; c < kClassCount; ++c) {
            const DieSpec d = dieSpec(cfg.seed, 1000000 + rep, c);
            const auto model = FaultModel::fromScenario(d.spec);
            runVoltageSweep(*model, kLines / 8, kLineBits, d.points,
                            [](std::size_t, double, FaultMap &map) {
                                (void)classify(map);
                            });
        }
        setupS.push_back(secondsSince(t0));
    }

    // Timed phase: whole rounds (one die per class).
    std::vector<DieRun> runs, tracedRuns;
    std::vector<double> dieMs, untracedRoundS, tracedRoundS;
    std::vector<double> roundRate, roundMeanDieMs;
    double wallS = 0;
    std::uint64_t vpoints = 0;
    const Clock::time_point phase0 = Clock::now();
    for (std::size_t round = 0;
         runs.empty() || secondsSince(phase0) < cfg.seconds; ++round) {
        double untracedS = 0, tracedS = 0, roundWallS = 0, roundDieMs = 0;
        for (std::size_t c = 0; c < kClassCount; ++c) {
            const DieSpec d = dieSpec(cfg.seed, round, c);
            DieRun run = sweepDie(d, false);
            if (cfg.trace) {
                // The same die again, with every boundary timed.
                DieRun traced = sweepDie(d, true);
                untracedS += run.wallS;
                tracedS += traced.wallS;
                ++out.ops;
                if (!(traced.stats == run.stats))
                    out.fail(std::string(kClasses[c]) +
                             " die: traced sweep differs from untraced");
                tracedRuns.push_back(std::move(traced));
            }
            run.round = round;
            run.cls = c;
            wallS += run.wallS;
            roundWallS += run.wallS;
            roundDieMs += double(run.sampleNs) / 1e6 / kClassCount;
            vpoints += d.points.size();
            dieMs.push_back(double(run.sampleNs) / 1e6);
            out.ops += d.points.size();
            if (const std::size_t bad = monotoneViolations(d, run)) {
                for (std::size_t i = 0; i < bad; ++i)
                    out.fail(std::string(kClasses[c]) +
                             " die lost active cells as voltage fell");
            }
            runs.push_back(std::move(run));
        }
        roundRate.push_back(double(voltageGrid().size() * kClassCount) /
                            roundWallS);
        roundMeanDieMs.push_back(roundDieMs);
        untracedRoundS.push_back(untracedS);
        tracedRoundS.push_back(tracedS);
    }

    // Cold re-derivation of sampled points.
    Rng pick(cfg.seed ^ 0x766d696eULL);
    for (std::size_t k = 0; k < kColdChecks; ++k) {
        const DieRun &run = runs[pick.next64() % runs.size()];
        const DieSpec d = dieSpec(cfg.seed, run.round, run.cls);
        const std::size_t idx = pick.next64() % d.points.size();
        const auto model = FaultModel::fromScenario(d.spec);
        const auto cold =
            model->buildMapAt(kLines, kLineBits, d.points[idx]);
        ++out.ops;
        if (!(classify(*cold) == run.stats[idx]))
            out.fail(std::string(kClasses[run.cls]) + " die at " +
                     std::to_string(d.points[idx]) +
                     " V: swept classification differs from cold");
    }

    m.set("setup_s", median(setupS), setupS.size(),
          "median of warm-up rounds");
    m.set("rss_mb", peakRssMb(getpid()));
    // Per-round figures (one die of each class), medians over rounds:
    // synthesis cost differs several-fold between classes, so a pooled
    // median over dies would sit on a class boundary.
    m.set("throughput_per_s", median(roundRate), roundRate.size(),
          "median over rounds of voltage points per second");
    m.set("latency_ms", median(roundMeanDieMs), roundMeanDieMs.size(),
          "median over rounds of the mean die synthesis");
    m.set("vpoints_per_s", double(vpoints) / wallS);
    m.percentile("die_ms_p50", dieMs, 0.5);
    double dieMsSum = 0;
    for (const double ms : dieMs)
        dieMsSum += ms;
    m.set("die_ms_mean", dieMsSum / double(dieMs.size()), dieMs.size());

    if (cfg.trace) {
        // Per round (one die of each class).
        const double rounds = double(tracedRoundS.size());
        std::uint64_t sampleNs = 0, stepNs = 0, queryNs = 0;
        std::uint64_t steps = 0, cold = 0, cells = 0;
        for (const DieRun &run : tracedRuns) {
            sampleNs += run.sampleNs;
            stepNs += run.stepNs;
            queryNs += run.queryNs;
            steps += run.steps;
            cold += run.coldActivations;
            for (const PointStats &st : run.stats)
                cells += st.activeCells;
        }
        m.set("fault.sample_ns", double(sampleNs) / rounds);
        m.set("fault.sample_calls", double(tracedRuns.size()) / rounds);
        m.set("fault.step_ns", double(stepNs) / rounds);
        m.set("fault.step_calls", double(steps) / rounds);
        m.set("fault.query_ns", double(queryNs) / rounds);
        m.set("fault.cold_activations", double(cold) / rounds);
        m.set("fault.active_cells", double(cells) / rounds);
        m.set("trace_overhead_frac",
              median(tracedRoundS) / median(untracedRoundS) - 1.0,
              tracedRoundS.size(), "traced / untraced round wall - 1");
    }
    return out;
}

} // namespace perfbench

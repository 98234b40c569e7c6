/**
 * @file
 * Hot-path performance harness: times the production (bit-sliced,
 * allocation-free, skip-sampled) paths against the reference
 * implementations they replaced, first as codec/fault-map micro
 * benchmarks and then as an end-to-end fig4-style sweep point run
 * twice — once with hotpathReferenceMode() forcing every object
 * constructed onto the reference paths, once normally.
 *
 * Emits BENCH_hotpath.json (format "killi-bench-hotpath-v1"); CI's
 * perf-smoke job asserts the SECDED encode+decode micro speedup and
 * the end-to-end speedup stay above their regression floors. See
 * EXPERIMENTS.md ("Hot-path perf harness") for the schema and how to
 * compare two runs.
 */

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <iostream>
#include <vector>

#include "bench/report.hh"
#include "bench/sweep.hh"
#include "common/hotpath.hh"
#include "common/rng.hh"
#include "common/table.hh"
#include "ecc/bch.hh"
#include "ecc/olsc.hh"
#include "ecc/parity.hh"
#include "ecc/secded.hh"
#include "fault/fault_map.hh"
#include "fault/fault_model.hh"
#include "fault/scenario_spec.hh"
#include "fault/sweep_engine.hh"
#include "fault/voltage_model.hh"

using namespace killi;

namespace
{

using Clock = std::chrono::steady_clock;

/**
 * Best-of-@p reps average ns/op of @p fn over @p iters calls. Best-of
 * (not mean-of) suppresses scheduler noise; the loop body is expected
 * to feed its result into a sink the optimizer cannot remove.
 */
template <typename Fn>
double
timeNs(Fn &&fn, std::size_t iters, int reps = 5)
{
    double best = 1e300;
    for (int r = 0; r < reps; ++r) {
        const auto start = Clock::now();
        for (std::size_t i = 0; i < iters; ++i)
            fn();
        const std::chrono::duration<double, std::nano> dt =
            Clock::now() - start;
        best = std::min(best, dt.count() / double(iters));
    }
    return best;
}

struct MicroResult
{
    std::string name;
    double referenceNs = 0.0;
    double optimizedNs = 0.0;
    /** Median per-pair ratio of a paired timing (0 when unpaired). */
    double pairedSpeedup = 0.0;
    int pairs = 0;

    double speedup() const
    {
        if (pairs > 0)
            return pairedSpeedup;
        return optimizedNs > 0.0 ? referenceNs / optimizedNs : 0.0;
    }

    Json toJson() const
    {
        Json doc = Json::object();
        doc.set("reference_ns", Json::number(referenceNs));
        doc.set("optimized_ns", Json::number(optimizedNs));
        doc.set("speedup", Json::number(speedup()));
        if (pairs > 0)
            doc.set("pairs", Json::number(double(pairs)));
        return doc;
    }
};

double
median(std::vector<double> v)
{
    std::sort(v.begin(), v.end());
    const std::size_t n = v.size();
    return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

/**
 * Times @p reference and @p optimized in @p pairs back-to-back runs
 * of @p iters calls each, alternating which side goes first. The
 * reported ns/op are each side's median and the speedup is the
 * median of the per-pair ratios: a burst of host noise lands inside
 * one pair and moves one ratio, where best-of-N per side lets the
 * two sides see different host states.
 */
template <typename RefFn, typename OptFn>
MicroResult
timePaired(std::string name, RefFn &&reference, OptFn &&optimized,
           std::size_t iters, int pairs = 9)
{
    std::vector<double> refNs, optNs, ratios;
    for (int i = 0; i < pairs; ++i) {
        // Alternate which side runs first, so neither side always
        // inherits the other's cache and allocator state.
        double ref, opt;
        if (i % 2 == 0) {
            ref = timeNs(reference, iters, 1);
            opt = timeNs(optimized, iters, 1);
        } else {
            opt = timeNs(optimized, iters, 1);
            ref = timeNs(reference, iters, 1);
        }
        refNs.push_back(ref);
        optNs.push_back(opt);
        ratios.push_back(ref / opt);
    }
    MicroResult r{std::move(name)};
    r.referenceNs = median(refNs);
    r.optimizedNs = median(optNs);
    r.pairedSpeedup = median(ratios);
    r.pairs = pairs;
    return r;
}

/** Fold a BitVec into a sink the optimizer must honour. */
volatile std::uint64_t gSink = 0;

void
sink(const BitVec &v)
{
    gSink = gSink ^ (v.word(0));
}

MicroResult
secdedEncode(std::size_t iters)
{
    const Secded code(512);
    Rng rng(1);
    BitVec data(512);
    data.randomize(rng);
    BitVec out(code.checkBits());
    MicroResult r{"secded_encode"};
    r.referenceNs =
        timeNs([&] { sink(code.encodeReference(data)); }, iters);
    r.optimizedNs = timeNs(
        [&] {
            code.encodeInto(data, out);
            sink(out);
        },
        iters);
    return r;
}

MicroResult
secdedDecode(std::size_t iters)
{
    const Secded code(512);
    Rng rng(2);
    BitVec data(512);
    data.randomize(rng);
    BitVec check = code.encode(data);
    // Clean decode: the steady-state hit path (errors are rare).
    MicroResult r{"secded_decode"};
    r.referenceNs = timeNs(
        [&] {
            gSink = gSink ^
                unsigned(code.decodeReference(data, check).status);
        },
        iters);
    r.optimizedNs = timeNs(
        [&] { gSink = gSink ^ (unsigned(code.decode(data, check).status)); },
        iters);
    return r;
}

/**
 * The CI floor metric: one SECDED encode plus one clean decode, the
 * per-access codec work of an installMetadata + probeLine pair,
 * timed in alternating pairs (see timePaired).
 */
MicroResult
secdedEncodeDecode(std::size_t iters)
{
    const Secded code(512);
    Rng rng(1);
    BitVec data(512);
    data.randomize(rng);
    BitVec check = code.encode(data);
    BitVec out(code.checkBits());
    return timePaired(
        "secded_encode_decode",
        [&] {
            sink(code.encodeReference(data));
            gSink = gSink ^
                unsigned(code.decodeReference(data, check).status);
        },
        [&] {
            code.encodeInto(data, out);
            sink(out);
            gSink = gSink ^ unsigned(code.decode(data, check).status);
        },
        iters);
}

MicroResult
parityEncode(std::size_t iters)
{
    const SegmentedParity sp(512, 16);
    Rng rng(3);
    BitVec data(512);
    data.randomize(rng);
    BitVec out(16);
    MicroResult r{"parity16_encode"};
    r.referenceNs =
        timeNs([&] { sink(sp.encodeReference(data)); }, iters);
    r.optimizedNs = timeNs(
        [&] {
            sp.encodeInto(data, out);
            sink(out);
        },
        iters);
    return r;
}

MicroResult
dectedEncode(std::size_t iters)
{
    const Bch code(512, 2, true);
    Rng rng(4);
    BitVec data(512);
    data.randomize(rng);
    BitVec out(code.checkBits());
    MicroResult r{"dected_encode"};
    r.referenceNs =
        timeNs([&] { sink(code.encodeReference(data)); }, iters);
    r.optimizedNs = timeNs(
        [&] {
            code.encodeInto(data, out);
            sink(out);
        },
        iters);
    return r;
}

MicroResult
olscEncode(std::size_t iters)
{
    const Olsc code(512, 23, 11);
    Rng rng(5);
    BitVec data(512);
    data.randomize(rng);
    BitVec out(code.checkBits());
    MicroResult r{"olsc_encode"};
    r.referenceNs =
        timeNs([&] { sink(code.encodeReference(data)); }, iters);
    r.optimizedNs = timeNs(
        [&] {
            code.encodeInto(data, out);
            sink(out);
        },
        iters);
    return r;
}

MicroResult
faultMapConstruction(std::size_t numLines)
{
    const std::unique_ptr<FaultModel> model =
        FaultModel::fromScenario(ScenarioSpec{});
    MicroResult r{"faultmap_construction"};
    // One construction per rep is plenty: a 32768x720 map draws tens
    // of millions of uniforms on the per-bit path.
    const auto build = [&] {
        const auto map = model->buildMapAt(numLines, 720, 1.0);
        gSink = gSink ^ (map->countFaults(0, 720));
    };
    setHotpathReferenceMode(true);
    r.referenceNs = timeNs(build, 1, 3);
    setHotpathReferenceMode(false);
    r.optimizedNs = timeNs(build, 1, 3);
    return r;
}

/**
 * Fault-map construction for a full 21-point voltage sweep, cold vs
 * incremental. The cold side builds each point's map from scratch —
 * what every per-point consumer (sweep jobs, kserved submissions)
 * did before the sweep engine: sample the population, then filter it
 * at the point voltage. The incremental side is one
 * runVoltageSweep(): a single population, stepped point-to-point by
 * threshold deltas. Both sides read each point's active set so the
 * per-point results are comparable work products, and the stepped
 * sets are bit-identical to the cold ones by the engine's contract
 * (pinned in fault_test, asserted under KILLI_CHECK_INVARIANTS).
 */
MicroResult
sweepFaultMapConstruction(std::size_t numLines)
{
    ScenarioSpec spec;
    spec.voltage = 0.70;
    const std::unique_ptr<FaultModel> model =
        FaultModel::fromScenario(spec);
    std::vector<double> points;
    for (double v = 0.70; v >= 0.4999; v -= 0.01)
        points.push_back(v);
    MicroResult r{"sweep_faultmap_construction"};
    r.referenceNs = timeNs(
        [&] {
            for (const double v : points) {
                const std::unique_ptr<FaultMap> map =
                    model->buildMapAt(numLines, 720, v);
                gSink = gSink ^ map->countFaults(0, 720);
            }
        },
        1, 3);
    r.optimizedNs = timeNs(
        [&] {
            runVoltageSweep(*model, numLines, 720, points,
                            [](std::size_t, double, FaultMap &map) {
                                gSink = gSink ^
                                        map.countFaults(0, 720);
                            });
        },
        1, 3);
    return r;
}

/** Wall-clock one single-point sweep (jobs=1, trace off). */
double
sweepMillis(const SweepOptions &opt)
{
    const auto start = Clock::now();
    const SweepResult res = runEvaluationSweep(opt);
    const std::chrono::duration<double, std::milli> dt =
        Clock::now() - start;
    if (res.workloads.empty() || res.workloads[0].schemes.empty() ||
        !res.workloads[0].schemes[0].ok)
        fatal("hotpath: e2e sweep point failed");
    return dt.count();
}

} // namespace

int
main(int argc, char **argv)
{
    Options opts("hotpath",
                 "hot-path perf harness: bit-sliced codecs, "
                 "allocation-free probes, skip-sampled fault maps "
                 "vs the reference implementations");
    const auto &iters =
        opts.add<std::uint64_t>("iters", 200000,
                                "iterations per codec micro timing")
            .range(1000, 100000000);
    const auto &mapLines =
        opts.add<std::uint64_t>("map-lines", 32768,
                                "fault-map lines for the "
                                "construction timing")
            .range(256, 1 << 20);
    const auto &scale =
        opts.add<double>("scale", 0.05,
                         "e2e sweep point workload scale")
            .range(0.001, 10.0);
    const auto &workload = opts.add(
        "workload", "spmv", "e2e sweep point workload");
    const auto &scheme = opts.add(
        "scheme", "Killi 1:256", "e2e sweep point scheme");
    const auto &seed =
        opts.add<std::uint64_t>("seed", 42, "e2e fault-map die seed");
    const auto &skipE2e = opts.add<bool>(
        "skip-e2e", false, "codec/fault-map micros only");
    opts.add("json", "BENCH_hotpath.json",
             "machine-readable results path (empty string disables)");
    opts.parse(argc, argv);

    std::cout << "=== Hot-path perf harness ===\n\n";

    std::vector<MicroResult> micros;
    micros.push_back(secdedEncode(iters.value()));
    micros.push_back(secdedDecode(iters.value()));
    micros.push_back(parityEncode(iters.value()));
    micros.push_back(dectedEncode(iters.value()));
    micros.push_back(olscEncode(iters.value() / 10 + 1));
    micros.push_back(faultMapConstruction(mapLines.value()));
    micros.push_back(sweepFaultMapConstruction(mapLines.value()));
    micros.push_back(secdedEncodeDecode(iters.value()));

    TextTable table;
    table.header({"micro", "reference", "optimized", "speedup"});
    for (const MicroResult &m : micros) {
        char ref[32], opt[32];
        std::snprintf(ref, sizeof(ref), "%.1f ns", m.referenceNs);
        std::snprintf(opt, sizeof(opt), "%.1f ns", m.optimizedNs);
        table.row({m.name, ref, opt, TextTable::num(m.speedup(), 2)});
    }
    table.print(std::cout);

    Json microJson = Json::object();
    for (const MicroResult &m : micros)
        microJson.set(m.name, m.toJson());

    Json e2eJson = Json::null();
    if (!skipE2e.value()) {
        SweepOptions sw;
        sw.scale = scale.value();
        sw.scenario.seed = seed.value();
        sw.seed = seed.value();
        sw.jobs = 1;
        sw.workloads = {workload.value()};
        sw.schemes = {scheme.value()};

        // Reference mode is sampled at construction time, so the
        // flag flip must precede the sweep building its systems.
        // The two runs draw different (same-distribution) fault
        // populations — the timing comparison is of identical work
        // shapes, not identical fault layouts.
        setHotpathReferenceMode(true);
        const double referenceMs = sweepMillis(sw);
        setHotpathReferenceMode(false);
        const double optimizedMs = sweepMillis(sw);

        const double speedup =
            optimizedMs > 0.0 ? referenceMs / optimizedMs : 0.0;
        std::cout << "\ne2e (" << workload.value() << " x "
                  << scheme.value() << ", scale " << scale.value()
                  << "): reference " << referenceMs
                  << " ms, optimized " << optimizedMs
                  << " ms, speedup "
                  << TextTable::num(speedup, 2) << "\n";

        e2eJson = Json::object();
        e2eJson.set("workload", Json::string(workload.value()));
        e2eJson.set("scheme", Json::string(scheme.value()));
        e2eJson.set("scale", Json::number(scale.value()));
        e2eJson.set("reference_ms", Json::number(referenceMs));
        e2eJson.set("optimized_ms", Json::number(optimizedMs));
        e2eJson.set("speedup", Json::number(speedup));
    }

    writeBenchReport(opts,
                     {{"format",
                       Json::string("killi-bench-hotpath-v1")},
                      {"micro", std::move(microJson)},
                      {"e2e", std::move(e2eJson)}});
    return 0;
}

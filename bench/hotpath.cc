/**
 * @file
 * Hot-path performance harness: times the production (bit-sliced,
 * allocation-free, skip-sampled) paths against the reference
 * implementations they replaced, as codec and fault-map micro
 * benchmarks. Whole-point sweep time is perfbench's fig4-sweep
 * workload.
 *
 * Emits BENCH_hotpath.json (format "killi-bench-hotpath-v1"); CI's
 * perf-smoke job asserts the SECDED encode+decode and sweep
 * fault-map speedups stay above their regression floors. See
 * EXPERIMENTS.md ("Hot-path perf harness") for the schema and how to
 * compare two runs.
 */

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <iostream>
#include <vector>

#include "bench/report.hh"
#include "common/options.hh"
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
    const ScenarioSpec spec;
    const IidStuckAt model(spec);
    MicroResult r{"faultmap_construction"};
    // One construction per rep is plenty: a 32768x720 map draws tens
    // of millions of uniforms on the per-bit path.
    const auto adopt = [&](std::shared_ptr<const FaultPopulation> die) {
        const FaultMap map(std::move(die), 720, spec.freqGHz, 1.0, true);
        gSink = gSink ^ (map.countFaults(0, 720));
    };
    r.referenceNs = timeNs(
        [&] { adopt(model.sampleReference(numLines, 720)); }, 1, 3);
    r.optimizedNs =
        timeNs([&] { adopt(model.sample(numLines, 720)); }, 1, 3);
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

    writeBenchReport(opts,
                     {{"format",
                       Json::string("killi-bench-hotpath-v1")},
                      {"micro", std::move(microJson)}});
    return 0;
}

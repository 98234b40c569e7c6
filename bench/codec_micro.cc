/**
 * @file
 * google-benchmark microbenchmarks of every codec in kecc: encode,
 * clean-decode, worst-case correction, and the probe() fast path the
 * timing simulator uses. These quantify why the simulator's
 * error-pattern probes matter: probe cost scales with the error
 * count, not the codeword width.
 *
 * A twin's last argument is 0 for the reference entry point a
 * production path replaced, 1 for what the simulator runs;
 * tools/bench_codec.py pairs the two into BENCH_codec.json.
 */

#include <benchmark/benchmark.h>

#include <memory>
#include <vector>

#include "common/rng.hh"
#include "ecc/bch.hh"
#include "ecc/codec_factory.hh"
#include "ecc/olsc.hh"
#include "ecc/parity.hh"
#include "ecc/secded.hh"
#include "fault/fault_map.hh"
#include "fault/fault_model.hh"
#include "fault/scenario_spec.hh"
#include "fault/sweep_engine.hh"
#include "trace/trace.hh"

using namespace killi;

namespace
{
BitVec
randomData(std::size_t bits, std::uint64_t seed)
{
    Rng rng(seed);
    BitVec v(bits);
    v.randomize(rng);
    return v;
}

/** Encode twin: encodeReference vs the allocation-free encodeInto. */
template <typename Code>
void
encodeTwin(benchmark::State &state, const Code &code, bool production,
           std::uint64_t seed)
{
    const BitVec data = randomData(512, seed);
    BitVec out = code.encode(data);
    if (production) {
        for (auto _ : state) {
            code.encodeInto(data, out);
            benchmark::DoNotOptimize(out);
        }
    } else {
        for (auto _ : state)
            benchmark::DoNotOptimize(code.encodeReference(data));
    }
}

/** Fault-map twins' geometry: a 2 MB L2, 720 bits per line. */
constexpr std::size_t kMapLines = 32768;
constexpr std::size_t kMapLineBits = 720;
} // namespace

static void
BM_ParityEncode16(benchmark::State &state)
{
    const SegmentedParity sp(512, 16);
    encodeTwin(state, sp, state.range(0), 1);
}
BENCHMARK(BM_ParityEncode16)->Arg(0)->Arg(1);

static void
BM_ParityCheck16(benchmark::State &state)
{
    const SegmentedParity sp(512, 16);
    const BitVec data = randomData(512, 2);
    const BitVec parity = sp.encode(data);
    for (auto _ : state)
        benchmark::DoNotOptimize(sp.check(data, parity));
}
BENCHMARK(BM_ParityCheck16);

static void
BM_ParityProbeSingleError(benchmark::State &state)
{
    const SegmentedParity sp(512, 16);
    const std::vector<std::size_t> errs{137};
    for (auto _ : state)
        benchmark::DoNotOptimize(sp.probe(errs));
}
BENCHMARK(BM_ParityProbeSingleError);

static void
BM_SecdedEncode(benchmark::State &state)
{
    const Secded code(512);
    encodeTwin(state, code, state.range(0), 3);
}
BENCHMARK(BM_SecdedEncode)->Arg(0)->Arg(1);

/** Clean decode, the steady-state hit path (errors are rare). */
static void
BM_SecdedDecodeClean(benchmark::State &state)
{
    const Secded code(512);
    BitVec data = randomData(512, 4);
    BitVec check = code.encode(data);
    if (state.range(0)) {
        for (auto _ : state)
            benchmark::DoNotOptimize(code.decode(data, check));
    } else {
        for (auto _ : state)
            benchmark::DoNotOptimize(code.decodeReference(data, check));
    }
}
BENCHMARK(BM_SecdedDecodeClean)->Arg(0)->Arg(1);

/** Encode + clean decode, the codec work of an installMetadata +
 *  probeLine pair (gated >= 3x). */
static void
BM_SecdedEncodeDecode(benchmark::State &state)
{
    const Secded code(512);
    BitVec data = randomData(512, 1);
    BitVec check = code.encode(data);
    BitVec out(code.checkBits());
    if (state.range(0)) {
        for (auto _ : state) {
            code.encodeInto(data, out);
            benchmark::DoNotOptimize(out);
            benchmark::DoNotOptimize(code.decode(data, check));
        }
    } else {
        for (auto _ : state) {
            benchmark::DoNotOptimize(code.encodeReference(data));
            benchmark::DoNotOptimize(code.decodeReference(data, check));
        }
    }
}
BENCHMARK(BM_SecdedEncodeDecode)->Arg(0)->Arg(1);

static void
BM_SecdedDecodeSingleError(benchmark::State &state)
{
    const Secded code(512);
    const BitVec golden = randomData(512, 5);
    const BitVec check = code.encode(golden);
    for (auto _ : state) {
        state.PauseTiming();
        BitVec data = golden;
        BitVec c = check;
        data.flip(100);
        state.ResumeTiming();
        benchmark::DoNotOptimize(code.decode(data, c));
    }
}
BENCHMARK(BM_SecdedDecodeSingleError);

static void
BM_SecdedProbeSingleError(benchmark::State &state)
{
    const Secded code(512);
    const std::vector<std::size_t> errs{100};
    for (auto _ : state)
        benchmark::DoNotOptimize(code.probe(errs));
}
BENCHMARK(BM_SecdedProbeSingleError);

/** Args: capability t (2 is DECTED), then the twin's 0/1. */
static void
BM_BchEncode(benchmark::State &state)
{
    const Bch code(512, static_cast<unsigned>(state.range(0)), true);
    encodeTwin(state, code, state.range(1), 6);
}
BENCHMARK(BM_BchEncode)->ArgsProduct({{2, 3, 6}, {0, 1}});

static void
BM_BchDecodeClean(benchmark::State &state)
{
    const Bch code(512, static_cast<unsigned>(state.range(0)), true);
    BitVec data = randomData(512, 7);
    BitVec check = code.encode(data);
    for (auto _ : state)
        benchmark::DoNotOptimize(code.decode(data, check));
}
BENCHMARK(BM_BchDecodeClean)->Arg(2)->Arg(6);

static void
BM_BchDecodeAtCapability(benchmark::State &state)
{
    const unsigned t = static_cast<unsigned>(state.range(0));
    const Bch code(512, t, true);
    const BitVec golden = randomData(512, 8);
    const BitVec check = code.encode(golden);
    for (auto _ : state) {
        state.PauseTiming();
        BitVec data = golden;
        BitVec c = check;
        for (unsigned e = 0; e < t; ++e)
            data.flip(37 + 81 * e);
        state.ResumeTiming();
        benchmark::DoNotOptimize(code.decode(data, c));
    }
}
BENCHMARK(BM_BchDecodeAtCapability)->Arg(2)->Arg(6);

/**
 * DECTED probe twin over the campaign's error counts (every fig4
 * DECTED probe has one or two errors): decode() of a materialized
 * codeword with a 1- and a 2-error pattern, vs probe() of the same
 * positions, which answers within capability without the decoder
 * (gated). decode() corrects the flips in place, so each iteration
 * starts from the zero codeword again.
 */
static void
BM_BchProbe(benchmark::State &state)
{
    const Bch code(512, 2, true);
    const std::vector<std::vector<std::size_t>> patterns{{137},
                                                         {37, 518}};
    if (state.range(0)) {
        for (auto _ : state) {
            for (const auto &errs : patterns)
                benchmark::DoNotOptimize(code.probe(errs));
        }
        return;
    }
    BitVec data(512);
    BitVec check(code.checkBits());
    for (auto _ : state) {
        for (const auto &errs : patterns) {
            for (const std::size_t pos : errs) {
                if (pos < 512)
                    data.flip(pos);
                else
                    check.flip(pos - 512);
            }
            benchmark::DoNotOptimize(code.decode(data, check));
        }
    }
}
BENCHMARK(BM_BchProbe)->Arg(0)->Arg(1);

/** Args: capability t, then the twin's 0/1. */
static void
BM_OlscEncode(benchmark::State &state)
{
    const Olsc code(512, 23, static_cast<unsigned>(state.range(0)));
    encodeTwin(state, code, state.range(1), 9);
}
BENCHMARK(BM_OlscEncode)->ArgsProduct({{2, 11}, {0, 1}});

static void
BM_OlscDecodeAtCapability(benchmark::State &state)
{
    const unsigned t = static_cast<unsigned>(state.range(0));
    const Olsc code(512, 23, t);
    const BitVec golden = randomData(512, 10);
    const BitVec check = code.encode(golden);
    for (auto _ : state) {
        state.PauseTiming();
        BitVec data = golden;
        BitVec c = check;
        for (unsigned e = 0; e < t; ++e)
            data.flip(11 + 43 * e);
        state.ResumeTiming();
        benchmark::DoNotOptimize(code.decode(data, c));
    }
}
BENCHMARK(BM_OlscDecodeAtCapability)->Arg(2)->Arg(11);

// ---- fault-map construction twins (one construction per repetition)

/** IidStuckAt's per-bit sampleReference (one uniform per cell) vs its
 *  geometric skip sampler (/1), both full dies adopted at 1.0 V, and
 *  the skip sampler covered for the paper's 0.625 V and adopted there
 *  (/2: the same draws, but only the cells that voltage activates). */
static void
BM_FaultMapSample(benchmark::State &state)
{
    const ScenarioSpec spec;
    const IidStuckAt model(spec);
    const double cover = state.range(0) == 2 ? model.coverFor({0.625})
                                             : kNoCover;
    const double vNorm = state.range(0) == 2 ? 0.625 : 1.0;
    for (auto _ : state) {
        auto die = state.range(0)
                       ? model.sample(kMapLines, kMapLineBits, cover)
                       : model.sampleReference(kMapLines, kMapLineBits);
        const FaultMap map(std::move(die), kMapLineBits, spec.freqGHz,
                           vNorm, true, cover);
        benchmark::DoNotOptimize(map.countFaults(0, kMapLineBits));
    }
}
BENCHMARK(BM_FaultMapSample)->Arg(0)->Arg(1)->Arg(2)->Iterations(1)->Unit(
    benchmark::kMillisecond);

/**
 * Fault maps for a 21-point sweep, 0.70 -> 0.50: a cold buildMapAt
 * per point (what per-point consumers did before the sweep engine)
 * vs one runVoltageSweep, which samples the die once under the
 * sweep's cover and re-activates it at each point, to bit-identical
 * maps (pinned in fault_test).
 */
static void
BM_SweepFaultMap(benchmark::State &state)
{
    ScenarioSpec spec;
    spec.voltage = 0.70;
    const std::unique_ptr<FaultModel> model =
        FaultModel::fromScenario(spec);
    std::vector<double> points;
    for (double v = 0.70; v >= 0.4999; v -= 0.01)
        points.push_back(v);
    for (auto _ : state) {
        if (state.range(0)) {
            runVoltageSweep(*model, kMapLines, kMapLineBits, points,
                            [](std::size_t, double, FaultMap &map) {
                                benchmark::DoNotOptimize(
                                    map.countFaults(0, kMapLineBits));
                            });
        } else {
            for (const double v : points) {
                const std::unique_ptr<FaultMap> map =
                    model->buildMapAt(kMapLines, kMapLineBits, v);
                benchmark::DoNotOptimize(
                    map->countFaults(0, kMapLineBits));
            }
        }
    }
}
BENCHMARK(BM_SweepFaultMap)->Arg(0)->Arg(1)->Iterations(1)->Unit(
    benchmark::kMillisecond);

// ---- trace-overhead trio -------------------------------------------
//
// The same SECDED probe loop three ways: no KTRACE at all, a KTRACE
// against a null sink (how untraced binaries run), and a KTRACE
// against a live sink whose runtime mask is empty (a sink exists but
// the category is off). The codec gate holds the null-sink variant
// within 2% of the untraced baseline — the compiled-in-but-off cost
// of the instrumentation — and loosely bounds the masked-sink
// variant, whose relaxed atomic load is visible on a 15ns probe.
//
// A 2% bound is well under a shared host's rep-to-rep noise on this
// loop (about 8% per pair), so the trio always runs 101 short
// repetitions: the median of 101 paired ratios resolves about 1%.

static void
traceTrio(benchmark::internal::Benchmark *b)
{
    b->Repetitions(101)->MinTime(0.02);
}

static void
BM_TraceProbeUntraced(benchmark::State &state)
{
    const Secded code(512);
    const std::vector<std::size_t> errs{100};
    for (auto _ : state)
        benchmark::DoNotOptimize(code.probe(errs));
}
BENCHMARK(BM_TraceProbeUntraced)->Apply(traceTrio);

static void
BM_TraceProbeNullSink(benchmark::State &state)
{
    const Secded code(512);
    const std::vector<std::size_t> errs{100};
    TraceSink *sink = nullptr;
    benchmark::DoNotOptimize(sink);
    Tick tick = 0;
    for (auto _ : state) {
        benchmark::DoNotOptimize(code.probe(errs));
        KTRACE(sink, ++tick, TraceCat::Ecc, "bench.probe",
               {"tick", tick});
    }
}
BENCHMARK(BM_TraceProbeNullSink)->Apply(traceTrio);

static void
BM_TraceProbeMaskedSink(benchmark::State &state)
{
    const Secded code(512);
    const std::vector<std::size_t> errs{100};
    TraceSink sinkStorage;
    sinkStorage.setMask(0);
    TraceSink *sink = &sinkStorage;
    benchmark::DoNotOptimize(sink);
    Tick tick = 0;
    for (auto _ : state) {
        benchmark::DoNotOptimize(code.probe(errs));
        KTRACE(sink, ++tick, TraceCat::Ecc, "bench.probe",
               {"tick", tick});
    }
}
BENCHMARK(BM_TraceProbeMaskedSink)->Apply(traceTrio);

static void
BM_TraceProbeRecording(benchmark::State &state)
{
    const Secded code(512);
    const std::vector<std::size_t> errs{100};
    // One sink per process: its ring fills once, with one "ring
    // buffer full" warning, and later calls time the steady
    // overwrite path.
    static TraceSink sinkStorage(1 << 12);
    TraceSink *sink = &sinkStorage;
    Tick tick = 0;
    for (auto _ : state) {
        benchmark::DoNotOptimize(code.probe(errs));
        KTRACE(sink, ++tick, TraceCat::Ecc, "bench.probe",
               {"tick", tick});
    }
}
BENCHMARK(BM_TraceProbeRecording);

BENCHMARK_MAIN();

/**
 * @file
 * Tests for the voltage model and fault maps: calibration anchors,
 * monotonicity in voltage and frequency, persistence, stuck-at
 * masking semantics, and agreement between sampled fault maps and
 * the analytical line-fault distribution (Fig. 2).
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <map>
#include <memory>

#include "common/bitvec.hh"
#include "common/rng.hh"
#include "fault/fault_map.hh"
#include "fault/fault_model.hh"
#include "fault/scenario_spec.hh"
#include "fault/sweep_engine.hh"
#include "fault/voltage_model.hh"
#include "iid_die.hh"

using namespace killi;

TEST(VoltageModelTest, CalibrationAnchors)
{
    const VoltageModel vm;
    EXPECT_NEAR(vm.pCell(0.625), 3.0e-4, 3e-6);
    EXPECT_NEAR(vm.pCell(0.600), 6.2e-3, 6.2e-5);
    EXPECT_NEAR(vm.pCell(0.575), 1.41e-2, 1.41e-4);
    EXPECT_NEAR(vm.pCell(0.500), 5.0e-2, 5e-4);
    EXPECT_LT(vm.pCell(0.700), 2e-9);
}

TEST(VoltageModelTest, MonotoneDecreasingInVoltage)
{
    const VoltageModel vm;
    double prev = 1.0;
    for (double v = 0.45; v <= 1.01; v += 0.005) {
        const double p = vm.pCell(v);
        EXPECT_LE(p, prev) << "pCell not monotone at v=" << v;
        prev = p;
    }
}

TEST(VoltageModelTest, MonotoneIncreasingInFrequency)
{
    const VoltageModel vm;
    // The DAC'17 measurements: failures at f occur at all higher f.
    EXPECT_LT(vm.pCell(0.625, 0.4), vm.pCell(0.625, 1.0));
    EXPECT_LT(vm.pCell(0.6, 0.4), vm.pCell(0.6, 0.7));
    EXPECT_LT(vm.pCell(0.6, 0.7), vm.pCell(0.6, 1.0));
}

TEST(VoltageModelTest, ExponentialRiseBelowKnee)
{
    // Section 3: below 0.675xVDD failure probability rises
    // exponentially — each 25mV step should multiply pCell.
    const VoltageModel vm;
    const double r1 = vm.pCell(0.650) / vm.pCell(0.675);
    const double r2 = vm.pCell(0.625) / vm.pCell(0.650);
    EXPECT_GT(r1, 3.0);
    EXPECT_GT(r2, 3.0);
}

TEST(VoltageModelTest, ReadWriteSplit)
{
    const VoltageModel vm;
    const double p = vm.pCell(0.6);
    EXPECT_NEAR(vm.pRead(0.6) + vm.pWrite(0.6), p, 1e-12);
    EXPECT_GT(vm.pWrite(0.6), vm.pRead(0.6)); // writeability worse
}

TEST(VoltageModelTest, PaperLineFaultStatement)
{
    // Section 3: at 1GHz and 0.625xVDD, >95% of rows have fewer
    // than two failures (523-bit SECDED codeword rows).
    const VoltageModel vm;
    const double fewer2 = vm.pLineFaults(523, 0, 0.625) +
        vm.pLineFaults(523, 1, 0.625);
    EXPECT_GT(fewer2, 0.95);
}

TEST(VoltageModelTest, LineFaultDistributionSumsToOne)
{
    const VoltageModel vm;
    double sum = 0.0;
    for (unsigned k = 0; k <= 30; ++k)
        sum += vm.pLineFaults(512, k, 0.575);
    EXPECT_NEAR(sum, 1.0, 1e-9);
    EXPECT_NEAR(vm.pLineAtLeast(512, 2, 0.575) +
                    vm.pLineFaults(512, 0, 0.575) +
                    vm.pLineFaults(512, 1, 0.575),
                1.0, 1e-9);
}

namespace
{
FaultMap
smallMap(double voltage, std::uint64_t seed = 7,
         std::size_t lines = 2048)
{
    return *iidDie(lines, seed, voltage);
}

/** smallMap() over the die of the per-bit reference sampler. */
FaultMap
referenceMap(double voltage, std::uint64_t seed,
             std::size_t lines = 2048)
{
    ScenarioSpec spec;
    spec.seed = seed;
    const IidStuckAt model(spec);
    return FaultMap(model.sampleReference(lines, 720), 720,
                    spec.freqGHz, voltage, true);
}
} // namespace

TEST(FaultMapTest, NominalVoltageIsEssentiallyFaultFree)
{
    FaultMap fm = smallMap(1.0);
    const auto hist = fm.histogram(523);
    EXPECT_EQ(hist.one + hist.twoPlus, 0u);
}

TEST(FaultMapTest, MonotoneInVoltage)
{
    // Every cell faulty at v must be faulty at all lower voltages.
    FaultMap fm = smallMap(1.0, 11, 1024);
    for (double vHigh : {0.65, 0.625, 0.6}) {
        const double vLow = vHigh - 0.025;
        fm.setVoltage(vHigh);
        std::vector<std::vector<std::uint16_t>> before(1024);
        for (std::size_t i = 0; i < 1024; ++i) {
            for (const FaultCell &c : fm.lineFaults(i))
                before[i].push_back(c.bit);
        }
        fm.setVoltage(vLow);
        for (std::size_t i = 0; i < 1024; ++i) {
            for (const std::uint16_t bit : before[i]) {
                bool still = false;
                for (const FaultCell &c : fm.lineFaults(i))
                    still = still || c.bit == bit;
                EXPECT_TRUE(still)
                    << "fault " << bit << " of line " << i
                    << " vanished when lowering " << vHigh << "->"
                    << vLow;
            }
        }
    }
}

TEST(FaultMapTest, PersistentAcrossQueries)
{
    FaultMap fm = smallMap(0.6);
    const auto &a = fm.lineFaults(5);
    const auto &b = fm.lineFaults(5);
    ASSERT_EQ(a.size(), b.size());
    for (std::size_t i = 0; i < a.size(); ++i)
        EXPECT_EQ(a[i].bit, b[i].bit);
}

TEST(FaultMapTest, SeedsProduceDifferentDies)
{
    FaultMap a = smallMap(0.575, 1);
    FaultMap b = smallMap(0.575, 2);
    std::size_t differing = 0;
    for (std::size_t i = 0; i < a.numLines(); ++i)
        differing += a.lineFaults(i).size() != b.lineFaults(i).size();
    EXPECT_GT(differing, 0u);
}

TEST(FaultMapTest, Table7CapacityAnchors)
{
    // MS-ECC usable capacity (<= 11 faults over its 710-bit line):
    // 99.8% at 0.6xVDD and 69.6% at 0.575xVDD (paper Table 7).
    const VoltageModel vm;
    const auto capacity = [&](double v) {
        double sum = 0.0;
        for (unsigned k = 0; k <= 11; ++k)
            sum += vm.pLineFaults(710, k, v);
        return sum;
    };
    EXPECT_NEAR(capacity(0.600), 0.998, 0.003);
    EXPECT_NEAR(capacity(0.575), 0.696, 0.03);
}

TEST(FaultMapTest, HistogramMatchesBinomial)
{
    // The sampled per-line fault distribution must match the
    // analytical model (Fig. 2 consistency), within sampling noise.
    static const VoltageModel vm;
    FaultMap fm = smallMap(0.6, 3, 32768);
    const auto hist = fm.histogram(512);
    const double n = 32768.0;
    EXPECT_NEAR(hist.zero / n, vm.pLineFaults(512, 0, 0.6), 0.02);
    EXPECT_NEAR(hist.one / n, vm.pLineFaults(512, 1, 0.6), 0.02);
    EXPECT_NEAR(hist.twoPlus / n, vm.pLineAtLeast(512, 2, 0.6), 0.02);
}

TEST(FaultMapTest, StuckAtMaskingSemantics)
{
    // A stuck cell corrupts data only when the stored bit differs
    // from the stuck value: write the stuck value -> no visible
    // error; write the complement -> visible.
    FaultMap fm = smallMap(0.55);
    bool exercised = false;
    for (std::size_t line = 0; line < fm.numLines() && !exercised;
         ++line) {
        for (const FaultCell &cell : fm.lineFaults(line)) {
            if (cell.bit >= 512)
                continue;
            BitVec match(512);
            match.set(cell.bit, cell.stuckValue);
            BitVec clash(512);
            clash.set(cell.bit, !cell.stuckValue);

            const auto visMatch = fm.visibleErrors(line, match);
            for (const std::size_t pos : visMatch)
                EXPECT_NE(pos, std::size_t{cell.bit});

            const auto visClash = fm.visibleErrors(line, clash);
            bool found = false;
            for (const std::size_t pos : visClash)
                found = found || pos == cell.bit;
            EXPECT_TRUE(found);
            exercised = true;
            break;
        }
    }
    EXPECT_TRUE(exercised) << "no faulty line found at 0.55xVDD";
}

TEST(FaultMapTest, TwoPartVisibleErrorsMatchesConcatenation)
{
    FaultMap fm = smallMap(0.5);
    Rng rng(9);
    for (std::size_t line = 0; line < 64; ++line) {
        BitVec data(512);
        data.randomize(rng);
        BitVec meta(21);
        meta.randomize(rng);

        BitVec combined(533);
        for (std::size_t i = 0; i < 512; ++i)
            combined.set(i, data.get(i));
        for (std::size_t i = 0; i < 21; ++i)
            combined.set(512 + i, meta.get(i));

        EXPECT_EQ(fm.visibleErrors(line, combined),
                  fm.visibleErrors(line, data, meta));
    }
}

TEST(FaultMapTest, ApplyFaultsFlipsExactlyVisibleErrors)
{
    FaultMap fm = smallMap(0.5);
    Rng rng(10);
    for (std::size_t line = 0; line < 128; ++line) {
        BitVec data(720);
        data.randomize(rng);
        const auto vis = fm.visibleErrors(line, data);
        BitVec mutated = data;
        const unsigned flips = fm.applyFaults(line, mutated);
        EXPECT_EQ(flips, vis.size());
        EXPECT_EQ(mutated.hammingDistance(data), vis.size());
        for (const std::size_t pos : vis)
            EXPECT_NE(mutated.get(pos), data.get(pos));
    }
}

TEST(FaultMapTest, CountFaultsRespectsPrefix)
{
    FaultMap fm = smallMap(0.5);
    for (std::size_t line = 0; line < 256; ++line) {
        EXPECT_LE(fm.countFaults(line, 512), fm.countFaults(line, 720));
        EXPECT_EQ(fm.countFaults(line, 720), fm.lineFaults(line).size());
    }
}

// --- Geometric skip sampling -------------------------------------------

TEST(FaultMapTest, SkipSamplingMatchesPerBitDistribution)
{
    // The skip sampler replaces one uniform draw per bit with one
    // draw per fault; the resulting population must stay marginally
    // Bernoulli(pCell) per cell with conditionally uniform
    // thresholds. Compare aggregate counts and the per-voltage
    // activation curve against the per-bit reference over many dies.
    const std::size_t numLines = 2048, lineBits = 720;
    std::size_t faultsSkip = 0, faultsRef = 0;
    std::size_t activeSkip = 0, activeRef = 0;
    for (std::uint64_t seed = 1; seed <= 8; ++seed) {
        FaultMap skip = smallMap(0.60, seed, numLines);
        FaultMap ref = referenceMap(0.60, seed ^ 0xabcdef, numLines);
        for (std::size_t l = 0; l < numLines; ++l) {
            activeSkip += skip.countFaults(l, lineBits);
            activeRef += ref.countFaults(l, lineBits);
        }
        skip.setVoltage(VoltageModel::minVoltage());
        ref.setVoltage(VoltageModel::minVoltage());
        for (std::size_t l = 0; l < numLines; ++l) {
            faultsSkip += skip.countFaults(l, lineBits);
            faultsRef += ref.countFaults(l, lineBits);
        }
    }
    // Populations are in the tens of thousands; 5% agreement is far
    // beyond any plausible sampler bug while stable across seeds.
    EXPECT_GT(faultsSkip, 1000u);
    EXPECT_NEAR(double(faultsSkip), double(faultsRef),
                0.05 * double(faultsRef));
    EXPECT_GT(activeSkip, 100u);
    EXPECT_NEAR(double(activeSkip), double(activeRef),
                0.10 * double(activeRef));
}

TEST(FaultMapTest, SampledPopulationIsSortedByBit)
{
    for (const bool reference : {false, true}) {
        const FaultMap map = reference
            ? referenceMap(VoltageModel::minVoltage(), 42, 512)
            : smallMap(VoltageModel::minVoltage(), 42, 512);
        for (std::size_t l = 0; l < map.numLines(); ++l) {
            const auto &cells = map.lineFaults(l);
            for (std::size_t i = 1; i < cells.size(); ++i)
                ASSERT_LT(cells[i - 1].bit, cells[i].bit)
                    << "line " << l;
        }
    }
}

TEST(FaultMapTest, PlantFaultKeepsSortInvariant)
{
    FaultMap map = smallMap(1.0, 7, 4); // planted faults only
    // Out-of-order plants must land in sorted position (isStuck and
    // countFaults binary-search / early-exit over the sorted set).
    map.plantFault(0, 300, true);
    map.plantFault(0, 10, false);
    map.plantFault(0, 650, true);
    map.plantFault(0, 200, false);
    const auto &cells = map.lineFaults(0);
    for (std::size_t i = 1; i < cells.size(); ++i)
        ASSERT_LT(cells[i - 1].bit, cells[i].bit);
    // visibleErrors consults isStuck for transient suppression: a
    // transient on a stuck cell must stay suppressed after the
    // sorted insertions.
    map.injectTransient(0, 300);
    BitVec ones(720);
    for (std::size_t i = 0; i < 720; ++i)
        ones.set(i);
    const auto errs = map.visibleErrors(0, ones);
    // stuck-false cells at 10 and 200 flip stored ones; stuck-true
    // at 300/650 match; the transient on stuck 300 is suppressed.
    EXPECT_EQ(errs.size(), 2u);
    EXPECT_TRUE(map.countFaults(0, 201) == 2u);
}

// --- Incremental voltage stepping --------------------------------------

namespace
{

/** Does @p cells hold a planted (always-active) cell at @p bit? */
bool
hasPlanted(const std::vector<FaultCell> &cells, std::uint16_t bit)
{
    return std::any_of(cells.begin(), cells.end(),
                       [bit](const FaultCell &c) {
                           return c.bit == bit && c.threshold < 0;
                       });
}

/** Bit-identity between two maps' active sets: same cells, same
 *  order, same payloads, at every line. */
void
expectActiveIdentical(const FaultMap &a, const FaultMap &b,
                      const std::string &ctx)
{
    ASSERT_EQ(a.numLines(), b.numLines()) << ctx;
    for (std::size_t l = 0; l < a.numLines(); ++l) {
        const auto &ca = a.lineFaults(l);
        const auto &cb = b.lineFaults(l);
        ASSERT_EQ(ca.size(), cb.size()) << ctx << " line " << l;
        for (std::size_t i = 0; i < ca.size(); ++i) {
            ASSERT_EQ(ca[i].bit, cb[i].bit)
                << ctx << " line " << l << " cell " << i;
            ASSERT_EQ(ca[i].threshold, cb[i].threshold)
                << ctx << " line " << l << " cell " << i;
            ASSERT_EQ(ca[i].stuckValue, cb[i].stuckValue)
                << ctx << " line " << l << " cell " << i;
            ASSERT_EQ(ca[i].kind, cb[i].kind)
                << ctx << " line " << l << " cell " << i;
        }
    }
}

/** Deep copy of a map's active sets (the callback's map is stepped
 *  in place, so order-comparison tests must snapshot). */
std::vector<std::vector<FaultCell>>
snapshotActive(const FaultMap &map)
{
    std::vector<std::vector<FaultCell>> out(map.numLines());
    for (std::size_t l = 0; l < map.numLines(); ++l)
        out[l] = map.lineFaults(l);
    return out;
}

} // namespace

TEST(FaultMapTest, EqualVoltageResetIsIdempotentNoOp)
{
    // Warm-store hits and replayed jobs legitimately re-apply the
    // point voltage: a bit-exact re-set must be accepted as a no-op
    // under the declared monotone regime, not treated as a raise.
    FaultMap fm = smallMap(1.0, 21, 512);
    fm.setVoltage(0.6);
    const auto before = snapshotActive(fm);
    fm.setVoltage(0.6);
    EXPECT_EQ(fm.voltage(), 0.6);
    const auto after = snapshotActive(fm);
    ASSERT_EQ(before.size(), after.size());
    for (std::size_t l = 0; l < before.size(); ++l) {
        ASSERT_EQ(before[l].size(), after[l].size()) << "line " << l;
        for (std::size_t i = 0; i < before[l].size(); ++i)
            EXPECT_EQ(before[l][i].bit, after[l][i].bit);
    }
}

TEST(FaultMapTest, IncrementalSteppingMatchesColdFiltering)
{
    // Same seed, same population; one map steps by threshold deltas,
    // the other cold-filters. Every point must be bit-identical.
    FaultMap inc = smallMap(1.0, 17, 1024);
    FaultMap cold = smallMap(1.0, 17, 1024);
    ASSERT_TRUE(inc.enableIncrementalVoltage());
    EXPECT_TRUE(inc.incrementalVoltage());
    for (const double v :
         {0.70, 0.675, 0.65, 0.625, 0.60, 0.59, 0.575, 0.55, 0.50}) {
        inc.setVoltage(v);
        cold.setVoltage(v);
        expectActiveIdentical(inc, cold,
                              "v=" + std::to_string(v));
    }
}

TEST(FaultMapTest, IncrementalTieAtThresholdMatchesCold)
{
    // A cell whose threshold sits exactly at a sweep point's pCell:
    // cold filtering's strict `threshold < p` leaves it inactive at
    // equality, and the incremental walk must land the tie on the
    // same side (both compare the float threshold promoted to
    // double against the same p).
    static const VoltageModel vm;
    const float tie = static_cast<float>(vm.pCell(0.600, 1.0));
    std::vector<std::vector<FaultCell>> pop(4);
    pop[1].push_back({100, tie, true, FaultKind::Writeability});
    pop[1].push_back({200, tie / 2, false, FaultKind::ReadDisturb});
    pop[2].push_back({50, tie * 4, true, FaultKind::Writeability});
    FaultMap inc(std::make_shared<const FaultPopulation>(pop), 720, 1.0,
                 1.0, /*monotone=*/true);
    FaultMap cold(std::make_shared<const FaultPopulation>(pop), 720,
                  1.0, 1.0, /*monotone=*/true);
    ASSERT_TRUE(inc.enableIncrementalVoltage());

    // Bisect for a voltage whose pCell equals the float-rounded
    // threshold exactly (pCell is continuous and monotone, so the
    // boundary is reachable to the last ulp if representable).
    const double target = double(tie);
    double lo = 0.55, hi = 0.65; // pCell(lo) > target > pCell(hi)
    double vStar = 0.600;
    bool exact = false;
    for (int it = 0; it < 200 && !exact; ++it) {
        const double mid = lo + (hi - lo) / 2;
        if (mid == lo || mid == hi)
            break;
        const double p = vm.pCell(mid, 1.0);
        if (p == target) {
            vStar = mid;
            exact = true;
        } else if (p > target) {
            lo = mid;
        } else {
            hi = mid;
        }
    }

    std::vector<double> ladder = {0.650, 0.625, 0.610};
    ladder.push_back(exact ? vStar : 0.600);
    ladder.push_back(0.590);
    ladder.push_back(0.575);
    for (const double v : ladder) {
        inc.setVoltage(v);
        cold.setVoltage(v);
        expectActiveIdentical(inc, cold, "v=" + std::to_string(v));
        if (exact && v == vStar) {
            // Exactly at the threshold: strict < excludes the cell
            // in both derivations.
            EXPECT_EQ(inc.lineFaults(1).size(), 1u);
            EXPECT_EQ(inc.lineFaults(1)[0].bit, 200);
        }
    }
    // Below the boundary the tied cell is active in both.
    EXPECT_EQ(inc.lineFaults(1).size(), 2u);
    EXPECT_EQ(cold.lineFaults(1).size(), 2u);
}

TEST(FaultMapTest, PlantFaultInvalidatesIncrementalIndex)
{
    FaultMap inc = smallMap(1.0, 23, 1024);
    FaultMap cold = smallMap(1.0, 23, 1024);
    inc.setVoltage(0.65);
    cold.setVoltage(0.65);
    ASSERT_TRUE(inc.enableIncrementalVoltage());
    inc.setVoltage(0.625);
    cold.setVoltage(0.625);
    // Mutating the population must not leave the delta path reading
    // stale (line, cell) references.
    inc.plantFault(3, 17, true);
    cold.plantFault(3, 17, true);
    for (const double v : {0.60, 0.575}) {
        inc.setVoltage(v);
        cold.setVoltage(v);
        expectActiveIdentical(inc, cold, "v=" + std::to_string(v));
    }
}

// --- Voltage-sweep engine ----------------------------------------------

TEST(SweepEngineTest, IncrementalMatchesColdAtEveryPoint)
{
    const std::vector<double> points = {0.70, 0.675, 0.65, 0.625,
                                        0.60, 0.575, 0.55};
    for (const char *name : {"iid", "clustered", "burst"}) {
        ScenarioSpec spec;
        spec.model = name;
        spec.seed = 13;
        const auto model = FaultModel::fromScenario(spec);
        std::size_t visited = 0;
        const VoltageSweepStats st = runVoltageSweep(
            *model, 256, 720, points,
            [&](std::size_t idx, double v, FaultMap &map) {
                ++visited;
                EXPECT_EQ(v, points[idx]);
                const auto cold = model->buildMapAt(256, 720, v);
                expectActiveIdentical(
                    map, *cold,
                    std::string(name) + " v=" + std::to_string(v));
            });
        EXPECT_TRUE(st.incremental) << name;
        EXPECT_EQ(st.points, points.size());
        EXPECT_EQ(st.coldActivations, 1u) << name;
        EXPECT_EQ(visited, points.size());
    }
}

TEST(SweepEngineTest, SinglePointSweep)
{
    ScenarioSpec spec;
    spec.seed = 3;
    const auto model = FaultModel::fromScenario(spec);
    std::size_t visited = 0;
    const VoltageSweepStats st = runVoltageSweep(
        *model, 128, 720, {0.6},
        [&](std::size_t idx, double v, FaultMap &map) {
            ++visited;
            EXPECT_EQ(idx, 0u);
            EXPECT_EQ(v, 0.6);
            const auto cold = model->buildMapAt(128, 720, 0.6);
            expectActiveIdentical(map, *cold, "single point");
        });
    EXPECT_EQ(st.points, 1u);
    EXPECT_TRUE(st.incremental);
    EXPECT_EQ(st.coldActivations, 1u);
    EXPECT_EQ(visited, 1u);
}

TEST(SweepEngineTest, AscendingAndDescendingOrdersAgree)
{
    // The engine internally visits monotone sweeps from the highest
    // voltage down; the caller's point order must not change any
    // per-point result, only the callback labeling.
    ScenarioSpec spec;
    spec.seed = 5;
    const auto model = FaultModel::fromScenario(spec);
    const std::vector<double> desc = {0.65, 0.625, 0.60, 0.575};
    const std::vector<double> asc(desc.rbegin(), desc.rend());

    std::map<double, std::vector<std::vector<FaultCell>>> byV[2];
    const std::vector<double> *orders[2] = {&desc, &asc};
    for (int o = 0; o < 2; ++o) {
        runVoltageSweep(*model, 256, 720, *orders[o],
                        [&](std::size_t idx, double v, FaultMap &map) {
                            EXPECT_EQ(v, (*orders[o])[idx]);
                            byV[o][v] = snapshotActive(map);
                        });
    }
    ASSERT_EQ(byV[0].size(), desc.size());
    ASSERT_EQ(byV[1].size(), desc.size());
    for (const double v : desc) {
        const auto &a = byV[0][v];
        const auto &b = byV[1][v];
        ASSERT_EQ(a.size(), b.size());
        for (std::size_t l = 0; l < a.size(); ++l) {
            ASSERT_EQ(a[l].size(), b[l].size())
                << "v=" << v << " line " << l;
            for (std::size_t i = 0; i < a[l].size(); ++i) {
                EXPECT_EQ(a[l][i].bit, b[l][i].bit);
                EXPECT_EQ(a[l][i].threshold, b[l][i].threshold);
            }
        }
    }
}

TEST(SweepEngineTest, DroopScheduleRefusesIncrementalPath)
{
    ScenarioSpec spec;
    spec.model = "droop";
    spec.droop.schedule = {0.625, 0.600, 0.575, 0.625}; // raises V
    const auto model = FaultModel::fromScenario(spec);
    std::vector<double> visitedV;
    const VoltageSweepStats st = runVoltageSweep(
        *model, 64, 720, spec.droop.schedule,
        [&](std::size_t idx, double v, FaultMap &map) {
            EXPECT_EQ(idx, visitedV.size());
            visitedV.push_back(v);
            EXPECT_FALSE(map.incrementalVoltage());
        });
    EXPECT_FALSE(st.incremental);
    EXPECT_EQ(st.coldActivations, 4u);
    EXPECT_EQ(visitedV, spec.droop.schedule); // caller order kept
    // And a droop-built (non-monotone) map refuses the opt-in
    // directly: its schedule may legally raise V.
    const auto map = model->buildMap(64, 720);
    EXPECT_FALSE(map->enableIncrementalVoltage());
    EXPECT_FALSE(map->incrementalVoltage());
}

TEST(SweepEngineTest, BuildMapFromPopulationIsBitIdentical)
{
    // Sweep points and the kserved warm store build maps from one
    // shared sampled population; through either overload the result
    // must match a cold buildMap() exactly.
    for (const char *name : {"iid", "clustered", "burst", "droop"}) {
        ScenarioSpec spec;
        spec.model = name;
        spec.seed = 29;
        const auto model = FaultModel::fromScenario(spec);
        const auto cold = model->buildMap(256, 720);
        const auto shared =
            model->buildMapFrom(model->sample(256, 720), 720);
        EXPECT_EQ(shared->voltage(), cold->voltage()) << name;
        expectActiveIdentical(*shared, *cold, name);
        const auto byValue =
            model->buildMapFrom(cold->population(), 720);
        EXPECT_EQ(byValue->voltage(), cold->voltage()) << name;
        expectActiveIdentical(*byValue, *cold, name);
    }
}

TEST(SweepEngineTest, AdoptedMapSharesThePopulationUncopied)
{
    ScenarioSpec spec;
    spec.seed = 31;
    const auto model = FaultModel::fromScenario(spec);
    const std::shared_ptr<const FaultPopulation> pop =
        model->sample(256, 720);
    const auto a = model->buildMapFrom(pop, 720);
    const auto b = model->buildMapFrom(pop, 720);
    EXPECT_EQ(&a->population(), pop.get());
    EXPECT_EQ(&b->population(), pop.get());
    EXPECT_EQ(pop.use_count(), 3); // pop, a and b
}

TEST(SweepEngineTest, PlantFaultOnAdoptedMapCopiesOnWrite)
{
    ScenarioSpec spec;
    spec.seed = 37;
    const auto model = FaultModel::fromScenario(spec);
    const auto cold = model->buildMap(256, 720);
    const std::shared_ptr<const FaultPopulation> pop =
        model->sample(256, 720);
    const FaultPopulation before = *pop;
    const auto planted = model->buildMapFrom(pop, 720);
    const auto sibling = model->buildMapFrom(pop, 720);

    planted->plantFault(5, 123, true);
    EXPECT_NE(&planted->population(), pop.get());
    EXPECT_TRUE(hasPlanted(planted->population()[5], 123));
    EXPECT_TRUE(hasPlanted(planted->lineFaults(5), 123));
    // Neither the shared population nor a sibling sees the plant.
    ASSERT_EQ(pop->size(), before.size());
    for (std::size_t l = 0; l < before.size(); ++l) {
        ASSERT_EQ((*pop)[l].size(), before[l].size()) << "line " << l;
        for (std::size_t i = 0; i < before[l].size(); ++i) {
            EXPECT_EQ((*pop)[l][i].bit, before[l][i].bit);
            EXPECT_EQ((*pop)[l][i].threshold, before[l][i].threshold);
        }
    }
    EXPECT_EQ(&sibling->population(), pop.get());
    expectActiveIdentical(*sibling, *cold, "sibling");

    // A later plant does not reach a copy of the map made since
    // (the copy shares the planted population).
    const FaultMap copy = *planted;
    planted->plantFault(7, 9, false);
    EXPECT_NE(&planted->population(), &copy.population());
    EXPECT_TRUE(hasPlanted(planted->population()[7], 9));
    EXPECT_FALSE(hasPlanted(copy.population()[7], 9));
    EXPECT_TRUE(hasPlanted(copy.population()[5], 123));
}

TEST(SweepEngineTest, PlantFaultClonesAtMostOncePerMap)
{
    // kcheck plants many cells per map: a map holding the only
    // handle to its population plants in place until another holder
    // (here a copy of the map) appears; an adopted map clones on its
    // first plant only.
    for (const char *name : {"iid", "clustered", "adopted"}) {
        ScenarioSpec spec;
        spec.model = std::string(name) == "clustered" ? "clustered"
                                                      : "iid";
        spec.seed = 43;
        const auto model = FaultModel::fromScenario(spec);
        const std::shared_ptr<const FaultPopulation> pop =
            model->sample(256, 720);
        const bool adopted = std::string(name) == "adopted";
        const auto map = adopted ? model->buildMapFrom(pop, 720)
                                 : model->buildMap(256, 720);
        const FaultPopulation *made = &map->population();
        map->plantFault(3, 100, true);
        const FaultPopulation *own = &map->population();
        EXPECT_EQ(own == made, !adopted) << name;
        map->plantFault(4, 200, false);
        EXPECT_EQ(&map->population(), own) << name;

        const FaultMap copy = *map;
        map->plantFault(5, 300, true);
        const FaultPopulation *clone = &map->population();
        EXPECT_NE(clone, own) << name;
        map->plantFault(6, 400, true);
        EXPECT_EQ(&map->population(), clone) << name;
        EXPECT_EQ(&copy.population(), own) << name;
        EXPECT_TRUE(hasPlanted(copy.population()[4], 200)) << name;
        EXPECT_FALSE(hasPlanted(copy.population()[5], 300)) << name;
        for (const auto &[line, bit] :
             {std::pair{3, 100}, {4, 200}, {5, 300}, {6, 400}})
            EXPECT_TRUE(hasPlanted(map->lineFaults(line), bit))
                << name << " line " << line;
        if (adopted) {
            EXPECT_FALSE(hasPlanted((*pop)[3], 100));
        }
    }
}

TEST(SweepEngineTest, AdoptedMapStepsIncrementallyLikeCold)
{
    // An adopted map starts at the schedule's first point; stepping
    // it down incrementally must match a cold build at every point.
    const std::vector<double> points = {0.675, 0.65, 0.625, 0.60,
                                        0.575, 0.55};
    for (const char *name : {"iid", "clustered", "burst"}) {
        ScenarioSpec spec;
        spec.model = name;
        spec.seed = 41;
        spec.voltage = 0.70;
        const auto model = FaultModel::fromScenario(spec);
        const auto adopted =
            model->buildMapFrom(model->sample(256, 720), 720);
        ASSERT_TRUE(adopted->enableIncrementalVoltage()) << name;
        for (const double v : points) {
            adopted->setVoltage(v);
            const auto cold = model->buildMapAt(256, 720, v);
            expectActiveIdentical(*adopted, *cold,
                                  std::string(name) + " v=" +
                                      std::to_string(v));
        }
    }
}

TEST(FaultMapDeathTest, AdoptionRejectsInvalidPopulation)
{
    // The sort/range check is fused into adoption's activation pass;
    // it must fire through every entry point even when no cell is
    // active at the map's voltage (threshold 0.9 is above every
    // pCell in the model's range).
    const auto cell = [](std::uint16_t bit) {
        return FaultCell{bit, 0.9f, true, FaultKind::Writeability};
    };
    FaultPopulation unsorted(3), duplicate(3), outside(3);
    unsorted[2] = {cell(40), cell(30)};
    duplicate[1] = {cell(10), cell(10)};
    outside[0] = {cell(5), cell(720)};
    const std::vector<std::pair<const FaultPopulation *, const char *>>
        cases = {{&unsorted, "line 2 not sorted strictly by bit"},
                 {&duplicate, "line 1 not sorted strictly by bit"},
                 {&outside, "line 0 cell 720 outside 720-bit line"}};
    const auto model = FaultModel::fromScenario(ScenarioSpec{});
    for (const auto &[bad, msg] : cases) {
        EXPECT_DEATH(
            FaultMap(std::make_shared<const FaultPopulation>(*bad), 720,
                     1.0, 1.0, /*monotone=*/true),
            msg);
        EXPECT_DEATH(model->buildMapFrom(*bad, 720), msg);
        EXPECT_DEATH(
            model->buildMapFrom(
                std::make_shared<const FaultPopulation>(*bad), 720),
            msg);
    }
    EXPECT_DEATH(model->buildMapFrom(
                     std::shared_ptr<const FaultPopulation>(), 720),
                 "null fault population");
}

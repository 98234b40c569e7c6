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
#include <span>

#include "common/bitvec.hh"
#include "common/rng.hh"
#include "fault/fault_map.hh"
#include "fault/fault_model.hh"
#include "fault/scenario_spec.hh"
#include "fault/sweep_engine.hh"
#include "fault/voltage_model.hh"
#include "fault_digest.hh"
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

// --- Voltage stepping --------------------------------------------------

namespace
{

/** Does @p cells hold a planted (always-active) cell at @p bit? */
bool
hasPlanted(std::span<const FaultCell> cells, std::uint16_t bit)
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
        out[l].assign(map.lineFaults(l).begin(), map.lineFaults(l).end());
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

TEST(FaultMapTest, TieAtThresholdStaysInactive)
{
    // A cell whose threshold sits exactly at a sweep point's pCell:
    // the strict `threshold < p` filter (the float threshold promoted
    // to double against p) leaves it inactive at equality, whether
    // the map steps down a setVoltage() ladder or is built at the
    // point. An exact tie needs a voltage whose double pCell equals a
    // float-rounded one; bisection finds one for only a few percent
    // of targets, so targets are tried until one ties.
    static const VoltageModel vm;
    float tie = 0;
    double vStar = 0;
    for (int k = 0; k < 400 && vStar == 0; ++k) {
        const double v0 = 0.55 + 0.00025 * k;
        tie = static_cast<float>(vm.pCell(v0, 1.0));
        double lo = v0 - 0.01, hi = v0 + 0.01; // pCell(lo) > tie > pCell(hi)
        while (vStar == 0) {
            const double mid = lo + (hi - lo) / 2;
            if (mid == lo || mid == hi)
                break;
            const double p = vm.pCell(mid, 1.0);
            if (p == double(tie))
                vStar = mid;
            else if (p > double(tie))
                lo = mid;
            else
                hi = mid;
        }
    }
    ASSERT_NE(vStar, 0.0) << "no voltage's pCell ties a float threshold";

    FaultPopulation cells(4);
    cells[1].push_back({100, tie, true, FaultKind::Writeability});
    cells[1].push_back({200, tie / 2, false, FaultKind::ReadDisturb});
    cells[2].push_back({50, tie * 4, true, FaultKind::Writeability});
    const auto pop =
        std::make_shared<const FaultPopulation>(std::move(cells));
    FaultMap stepped(pop, 720, 1.0, 1.0, /*monotone=*/true);
    for (const double v : {vStar + 0.05, vStar + 0.02, vStar,
                           vStar - 0.01, vStar - 0.02}) {
        stepped.setVoltage(v);
        const FaultMap built(pop, 720, 1.0, v, /*monotone=*/true);
        expectActiveIdentical(stepped, built, "v=" + std::to_string(v));
        if (v == vStar) {
            // Exactly at the threshold: strict < excludes the cell.
            ASSERT_EQ(stepped.lineFaults(1).size(), 1u);
            EXPECT_EQ(stepped.lineFaults(1)[0].bit, 200);
        }
    }
    // Below the boundary the tied cell is active.
    EXPECT_EQ(stepped.lineFaults(1).size(), 2u);
}

// --- CSR view and transients ------------------------------------------

TEST(FaultMapTest, SteppedCsrMatchesColdAcrossScenarioClasses)
{
    // Every 0.02 V point from 0.70 down to 0.50, for each die class:
    // the stepped CSR must equal a cold buildMapAt(). Midway, two
    // plants (one over an active cell, one into an empty slot) edit
    // the CSR in place, after which stepping resumes over the
    // planted population.
    for (const char *name : {"iid", "clustered", "burst"}) {
        ScenarioSpec spec;
        spec.model = name;
        spec.seed = 29;
        const auto model = FaultModel::fromScenario(spec);
        const auto stepped = model->buildMapAt(256, 720, 0.70);
        std::vector<std::pair<std::size_t, std::uint16_t>> plants;
        const auto plantAll = [&plants](FaultMap &map) {
            for (const auto &[line, bit] : plants)
                map.plantFault(line, bit, true);
        };
        for (int step = 0; step <= 10; ++step) {
            const double v = 0.70 - 0.02 * step;
            const std::string ctx =
                std::string(name) + " v=" + std::to_string(v);
            stepped->setVoltage(v);
            auto cold = model->buildMapAt(256, 720, v);
            plantAll(*cold);
            expectActiveIdentical(*stepped, *cold, ctx);
            if (step != 5)
                continue;
            std::size_t faulty = 0;
            while (stepped->lineFaults(faulty).empty())
                ++faulty;
            plants = {{faulty, stepped->lineFaults(faulty)[0].bit},
                      {faulty + 1, 719}};
            if (!stepped->lineFaults(faulty + 1).empty() &&
                stepped->lineFaults(faulty + 1).back().bit == 719)
                plants[1].second = 718;
            plantAll(*stepped);
            cold = model->buildMapAt(256, 720, v);
            plantAll(*cold);
            expectActiveIdentical(*stepped, *cold, ctx + " planted");
        }
    }
}

TEST(FaultMapTest, TransientTwiceCancelsAndClearsOnlyItsLine)
{
    FaultMap map = smallMap(1.0, 7, 16);
    for (std::size_t l = 0; l < map.numLines(); ++l) {
        ASSERT_TRUE(map.lineFaults(l).empty());
        ASSERT_TRUE(map.clean(l));
    }
    const BitVec zeros(720);
    // A transient on a fault-free line makes it unclean; flips read
    // back in injection order.
    map.injectTransient(3, 200);
    map.injectTransient(3, 100);
    EXPECT_FALSE(map.clean(3));
    EXPECT_EQ(map.visibleErrors(3, zeros),
              (std::vector<std::size_t>{200, 100}));
    // The same cell struck twice flips back.
    map.injectTransient(3, 200);
    EXPECT_EQ(map.visibleErrors(3, zeros), (std::vector<std::size_t>{100}));
    map.injectTransient(3, 100);
    EXPECT_TRUE(map.clean(3));
    EXPECT_TRUE(map.visibleErrors(3, zeros).empty());

    // Clearing a line with no flips changes nothing, on an empty
    // table and beside another line's flip.
    map.clearTransients(4);
    EXPECT_TRUE(map.clean(4));
    map.injectTransient(5, 7);
    map.clearTransients(4);
    EXPECT_TRUE(map.clean(4));
    EXPECT_FALSE(map.clean(5));
    EXPECT_EQ(map.visibleErrors(5, zeros), (std::vector<std::size_t>{7}));
    map.clearTransients(5);
    EXPECT_TRUE(map.clean(5));

    // An active fault alone also makes a line unclean, even when the
    // stored value masks it.
    map.plantFault(6, 9, false);
    EXPECT_FALSE(map.clean(6));
    EXPECT_TRUE(map.visibleErrors(6, zeros).empty());
}

// --- Voltage-sweep engine ----------------------------------------------

TEST(SweepEngineTest, SweepMatchesColdAtEveryPoint)
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
        EXPECT_EQ(st.points, points.size());
        EXPECT_EQ(st.coldActivations, points.size()) << name;
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

TEST(SweepEngineTest, RepeatedPointsMatchColdAtEveryVisit)
{
    // Points may repeat. A monotone sweep visits a repeat right after
    // its twin (re-setting the voltage is a no-op); a droop schedule
    // keeps the caller's order and comes back to an earlier voltage
    // by raising V. Every visit must see a cold build's active set,
    // and every index must name its own slot, once.
    ScenarioSpec iid;
    iid.model = "iid";
    iid.seed = 19;
    ScenarioSpec droop;
    droop.model = "droop";
    droop.seed = 19;
    droop.droop.base = "clustered";
    droop.droop.schedule = {0.625, 0.600, 0.575, 0.625};
    const struct
    {
        const ScenarioSpec &spec;
        std::vector<double> points;
        std::vector<std::size_t> visitOrder;
    } sweeps[] = {
        {iid, {0.65, 0.60, 0.65, 0.60}, {0, 2, 1, 3}},
        {droop, droop.droop.schedule, {0, 1, 2, 3}},
    };
    for (const auto &[spec, points, visitOrder] : sweeps) {
        const auto model = FaultModel::fromScenario(spec);
        std::vector<std::size_t> visited;
        const VoltageSweepStats st = runVoltageSweep(
            *model, 256, 720, points,
            [&](std::size_t idx, double v, FaultMap &map) {
                ASSERT_LT(idx, points.size());
                EXPECT_EQ(v, points[idx]);
                visited.push_back(idx);
                const auto cold = model->buildMapAt(256, 720, v);
                expectActiveIdentical(map, *cold,
                                      spec.model + " point " +
                                          std::to_string(idx));
            });
        EXPECT_EQ(visited, visitOrder) << spec.model;
        EXPECT_EQ(st.points, points.size());
        EXPECT_EQ(st.coldActivations, points.size()) << spec.model;
    }
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

// --- Covered dies --------------------------------------------------------

namespace
{

/** The paper's operating point, a 0.70 -> 0.50 sweep, and points
 *  around the 0.7 V below which cluster and burst cells fail (lower
 *  covers keep all of those cells). */
const std::vector<double> kOperatingPoint = {0.625};
const std::vector<double> kSweep = {0.70, 0.675, 0.65, 0.625, 0.60,
                                    0.575, 0.55, 0.525, 0.50};
const std::vector<double> kHigh = {0.80, 0.75, 0.70};

/** Every scenario class; droop runs over a clustered population. */
ScenarioSpec
coverSpec(const char *name)
{
    ScenarioSpec spec;
    spec.model = name;
    spec.seed = 47;
    spec.droop.base = "clustered";
    return spec;
}

/** Counts the RNG draws a run makes and folds them into a digest. */
class DrawCounter : public ReplayProbe
{
  public:
    void
    onRngDraw(std::uint64_t value) override
    {
        ++draws;
        digest = (digest ^ value) * 0x100000001b3ull;
    }
    void onEventPop(Tick, std::uint64_t) override {}
    void onTraceRecord(Tick, std::uint32_t, const char *,
                       std::uint64_t) override
    {
    }

    std::uint64_t draws = 0;
    std::uint64_t digest = 0xcbf29ce484222325ull;
};

} // namespace

TEST(FaultCoverTest, CoveredDieActivatesLikeFullDie)
{
    for (const char *name : {"iid", "clustered", "burst", "droop"}) {
        const ScenarioSpec spec = coverSpec(name);
        const auto model = FaultModel::fromScenario(spec);
        const std::shared_ptr<const FaultPopulation> full =
            model->sample(2048, 720);
        for (const std::vector<double> *points :
             {&kOperatingPoint, &kSweep, &kHigh}) {
            const double cover = model->coverFor(*points);
            const std::shared_ptr<const FaultPopulation> die =
                model->sample(2048, 720, cover);
            std::size_t fullCells = 0, kept = 0;
            for (std::size_t l = 0; l < die->size(); ++l) {
                fullCells += (*full)[l].size();
                kept += (*die)[l].size();
                for (const FaultCell &cell : (*die)[l])
                    EXPECT_LT(double(cell.threshold), cover) << name;
            }
            EXPECT_LT(kept, fullCells) << name;
            for (const double v : *points) {
                const std::string ctx = std::string(name) +
                    " cover " + std::to_string(cover) +
                    " v=" + std::to_string(v);
                const FaultMap covered(die, 720, spec.freqGHz, v,
                                       model->monotoneVoltage(), cover);
                const FaultMap reference(full, 720, spec.freqGHz, v,
                                         model->monotoneVoltage());
                expectActiveIdentical(covered, reference, ctx);
            }
        }
    }
}

TEST(FaultCoverTest, CoverKeepsEverySamplerDraw)
{
    // A recording captures the sampler's draws, so a cover may drop
    // cells but never a draw.
    for (const char *name : {"iid", "clustered", "burst", "droop"}) {
        const auto model = FaultModel::fromScenario(coverSpec(name));
        DrawCounter full, covered;
        {
            const ScopedReplayProbe scope(&full);
            model->sample(256, 720);
        }
        {
            const ScopedReplayProbe scope(&covered);
            model->sample(256, 720, model->coverFor(kOperatingPoint));
        }
        EXPECT_GT(full.draws, 0u) << name;
        EXPECT_EQ(covered.draws, full.draws) << name;
        EXPECT_EQ(covered.digest, full.digest) << name;
    }
}

// --- Literal pins of the sampling kernel and the activation -------------

namespace
{

/** perfbench vmin-sweep's grid: 0.70 down to 0.50 in 0.02 V steps. */
std::vector<double>
vminGrid()
{
    std::vector<double> grid;
    for (int i = 0; i <= 10; ++i)
        grid.push_back(0.70 - 0.02 * i);
    return grid;
}

/** The seed-42 spec of @p name; droop runs over a clustered die. */
ScenarioSpec
pinSpec(const char *name)
{
    ScenarioSpec spec;
    spec.model = name;
    spec.seed = 42;
    spec.droop.base = "clustered";
    return spec;
}

} // namespace

TEST(FaultPinTest, SamplerDrawsAndCoveredDiesArePinned)
{
    // Literal values for the seed-42 512x720 die of every sampler:
    // its RNG draw count and draw-stream digest, and the die it keeps
    // under the vmin grid's cover and under the 0.625 V point's
    // cover. Any change to a draw, its order, a kept cell or the cell
    // encoding moves one of them. (Droop samples its clustered base.)
    struct Pin
    {
        const char *model;
        bool reference;
        std::uint64_t draws;
        std::uint64_t drawDigest;
        std::size_t gridCells;
        std::uint64_t gridDigest;
        std::size_t pointCells;
        std::uint64_t pointDigest;
    };
    const Pin pins[] = {
        {"iid", false, 86154, 0x2993580c84a3270cull, 18436,
         0x7af1dcee79172160ull, 122, 0x3952071c93604828ull},
        {"iid", true, 454088, 0x098aa417d9f3e4caull, 18172,
         0xb0b905e4419d3363ull, 120, 0x422aca2d17bd074full},
        {"clustered", false, 470323, 0x978654cf948114e4ull, 25685,
         0xd00acabe25383be0ull, 265, 0xef4450082712cf35ull},
        {"burst", false, 455662, 0xbc40eff5700c5fccull, 18468,
         0xe87abca30b341400ull, 420, 0xe0d5a94d87c7c5e0ull},
        {"droop", false, 470323, 0x978654cf948114e4ull, 25685,
         0xd00acabe25383be0ull, 265, 0xef4450082712cf35ull},
    };
    for (const Pin &pin : pins) {
        const ScenarioSpec spec = pinSpec(pin.model);
        const auto model = FaultModel::fromScenario(spec);
        const auto sample = [&](double cover) {
            return pin.reference
                ? IidStuckAt(spec).sampleReference(512, 720, cover)
                : model->sample(512, 720, cover);
        };
        const std::string label = std::string(pin.model) +
            (pin.reference ? " (per-bit reference)" : "");
        const std::pair<double, std::pair<std::size_t, std::uint64_t>>
            covers[] = {
                {model->coverFor(vminGrid()),
                 {pin.gridCells, pin.gridDigest}},
                {model->coverFor(kOperatingPoint),
                 {pin.pointCells, pin.pointDigest}},
            };
        for (const auto &[cover, want] : covers) {
            const std::string ctx =
                label + " cover " + std::to_string(cover);
            DrawCounter counter;
            std::shared_ptr<const FaultPopulation> die;
            {
                const ScopedReplayProbe scope(&counter);
                die = sample(cover);
            }
            EXPECT_EQ(counter.draws, pin.draws) << ctx;
            EXPECT_EQ(counter.digest, pin.drawDigest)
                << ctx << std::hex << " draw digest 0x" << counter.digest;
            std::size_t cells = 0;
            for (const auto &line : *die)
                cells += line.size();
            EXPECT_EQ(cells, want.first) << ctx;
            EXPECT_EQ(populationDigest(*die), want.second)
                << ctx << std::hex << " die digest 0x"
                << populationDigest(*die);
        }
    }
}

TEST(FaultPinTest, SweptCsrIsPinnedAtEveryGridPoint)
{
    // The active set runVoltageSweep hands out at each vmin grid
    // point of the seed-42 512x720 clustered die, by literal value.
    // A droop map over the same die, visiting the grid in a rising
    // and falling order (the active set shrinks and regrows), must
    // hand out the same set at every voltage.
    struct Point
    {
        std::size_t cells;
        std::uint64_t digest;
    };
    const Point pins[] = {
        {79, 0xb05c592840f72d1dull}, // 0.70 V
        {79, 0xb05c592840f72d1dull}, // 0.68 V
        {84, 0x70c97309434d4f7bull}, // 0.66 V
        {115, 0x4238eece040c3279ull}, // 0.64 V
        {412, 0x39009327f21a17bcull}, // 0.62 V
        {3677, 0xd517d1d2322af75dull}, // 0.60 V
        {7130, 0x51bc60d452bce0a7ull}, // 0.58 V
        {10671, 0x20d0b0751f7b248cull}, // 0.56 V
        {14996, 0x8ed3bdfd2228a6b8ull}, // 0.54 V
        {20111, 0x7081b10c455ca48cull}, // 0.52 V
        {25685, 0xd00acabe25383be0ull}, // 0.50 V
    };
    const std::vector<double> grid = vminGrid();
    ASSERT_EQ(grid.size(), std::size(pins));
    const auto check = [&](const char *name,
                           const std::vector<std::size_t> &order) {
        std::vector<double> points;
        for (const std::size_t i : order)
            points.push_back(grid[i]);
        const auto model = FaultModel::fromScenario(pinSpec(name));
        std::size_t visits = 0;
        runVoltageSweep(*model, 512, 720, points,
                        [&](std::size_t idx, double v, FaultMap &map) {
                            const Point &want = pins[order[idx]];
                            std::size_t cells = 0;
                            for (std::size_t l = 0; l < map.numLines(); ++l)
                                cells += map.lineFaults(l).size();
                            const std::uint64_t digest = activeDigest(map);
                            EXPECT_EQ(cells, want.cells)
                                << name << " v=" << v;
                            EXPECT_EQ(digest, want.digest)
                                << name << " v=" << v << std::hex
                                << " active digest 0x" << digest;
                            ++visits;
                        });
        EXPECT_EQ(visits, points.size()) << name;
    };
    check("clustered", {0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10});
    check("droop", {5, 0, 10, 2, 8, 1, 9, 3, 7, 4, 6});
}

TEST(FaultMapTest, ActivationBufferEdgesMatchCold)
{
    // The active-set buffer shrinks, regrows past every size it had,
    // and takes plants in between; at every point it must equal a
    // cold buildMapAt() (with the same plants).
    ScenarioSpec spec = pinSpec("droop");
    spec.seed = 61;
    spec.droop.schedule = {0.60, 0.50, 0.70, 0.50, 0.60};
    const auto model = FaultModel::fromScenario(spec);
    const double cover = model->coverFor(spec.droop.schedule);
    const auto map = model->buildMapAt(256, 720, 0.60, cover);
    std::vector<std::pair<std::size_t, std::uint16_t>> plants;
    for (const double v : spec.droop.schedule) {
        map->setVoltage(v);
        if (plants.empty() && v == 0.70) {
            // After the shrink: one plant over a cell the regrowth
            // activates, one onto a line empty at every point.
            std::size_t line = 0;
            while (model->buildMapAt(256, 720, 0.50, cover)
                       ->lineFaults(line)
                       .empty())
                ++line;
            const std::uint16_t bit =
                model->buildMapAt(256, 720, 0.50, cover)
                    ->lineFaults(line)[0]
                    .bit;
            plants = {{line, bit}, {255, 3}};
            for (const auto &[l, b] : plants)
                map->plantFault(l, b, true);
        }
        auto cold = model->buildMapAt(256, 720, v, cover);
        for (const auto &[l, b] : plants)
            cold->plantFault(l, b, true);
        expectActiveIdentical(*map, *cold,
                              "droop v=" + std::to_string(v));
    }
    EXPECT_EQ(map->population()[255].front().bit, 3);

    // A line whose cells are all active, one with none active, a
    // mixed line and an empty one, stepped across the boundary.
    const auto cell = [](std::uint16_t bit, float threshold) {
        return FaultCell{bit, threshold, bit % 2 == 0,
                         FaultKind::ReadDisturb};
    };
    FaultPopulation cells(4);
    cells[0] = {cell(1, 1e-4f), cell(2, 2e-4f), cell(700, 3e-5f)};
    cells[1] = {cell(5, 0.9f), cell(6, 0.8f)};
    cells[2] = {cell(0, 0.9f), cell(9, 1e-4f), cell(10, 0.5f),
                cell(11, 2e-4f), cell(719, 0.7f)};
    const auto pop =
        std::make_shared<const FaultPopulation>(std::move(cells));
    FaultMap stepped(pop, 720, 1.0, 1.0, /*monotone=*/false);
    for (const double v : {0.625, 1.0, 0.625, 0.575}) {
        stepped.setVoltage(v);
        const FaultMap built(pop, 720, 1.0, v, /*monotone=*/false);
        expectActiveIdentical(stepped, built, "v=" + std::to_string(v));
        const bool on = v < 1.0;
        EXPECT_EQ(stepped.lineFaults(0).size(), on ? 3u : 0u);
        EXPECT_TRUE(stepped.lineFaults(1).empty());
        ASSERT_EQ(stepped.lineFaults(2).size(), on ? 2u : 0u);
        if (on) {
            EXPECT_EQ(stepped.lineFaults(2)[0].bit, 9);
            EXPECT_EQ(stepped.lineFaults(2)[1].bit, 11);
        }
        EXPECT_TRUE(stepped.lineFaults(3).empty());
    }
}

TEST(FaultMapDeathTest, ActivationPastTheCoverIsFatal)
{
    ScenarioSpec spec;
    spec.seed = 53;
    const auto model = FaultModel::fromScenario(spec);
    const double cover = model->coverFor(kOperatingPoint);
    const auto die = model->sample(64, 720, cover);
    EXPECT_DEATH(model->buildMapAt(64, 720, 0.60, cover),
                 "past the cover");
    EXPECT_DEATH(FaultMap(die, 720, spec.freqGHz, 0.55, true, cover),
                 "past the cover");
    const auto map = model->buildMapFrom(die, 720, cover);
    EXPECT_EQ(map->voltage(), 0.625);
    EXPECT_DEATH(map->setVoltage(0.60), "past the cover");
    // A droop map moves either way within its schedule's cover, but
    // not past it.
    ScenarioSpec droop = spec;
    droop.model = "droop";
    droop.droop.schedule = {0.70, 0.625, 0.65};
    const auto droopModel = FaultModel::fromScenario(droop);
    const double droopCover =
        droopModel->coverFor(droopModel->voltageSchedule());
    const auto droopMap = droopModel->buildMapFrom(
        droopModel->sample(64, 720, droopCover), 720, droopCover);
    droopMap->setVoltage(0.625);
    droopMap->setVoltage(0.65);
    EXPECT_DEATH(droopMap->setVoltage(0.60), "past the cover");
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

/**
 * @file
 * ScenarioSpec / FaultModel contract tests: the scenario document
 * round-trips byte-identically, every sampler's seed-42 die is pinned
 * by digest, the correlated model classes produce the spatial shapes
 * they advertise, and the monotone-voltage guard fires exactly when a
 * model declares monotonicity.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "fault/fault_map.hh"
#include "fault/fault_model.hh"
#include "fault/scenario_spec.hh"
#include "fault/voltage_model.hh"
#include "error_text.hh"
#include "fault_digest.hh"

namespace killi
{
namespace
{

Json
parsed(const std::string &text)
{
    Json doc;
    std::string err;
    EXPECT_TRUE(Json::parse(text, doc, &err)) << err;
    return doc;
}

ScenarioSpec
clusteredSpec()
{
    ScenarioSpec s;
    s.model = "clustered";
    s.seed = 7;
    s.voltage = 0.6;
    s.cluster.rowFrac = 0.05;
    s.cluster.clusterRate = 0.01;
    return s;
}

ScenarioSpec
burstSpec()
{
    ScenarioSpec s;
    s.model = "burst";
    s.seed = 9;
    s.voltage = 0.6;
    s.burst.burstRate = 0.2;
    return s;
}

ScenarioSpec
droopSpec()
{
    ScenarioSpec s;
    s.model = "droop";
    s.seed = 5;
    s.voltage = 0.65;
    s.droop.base = "clustered";
    s.droop.schedule = {0.65, 0.6, 0.575, 0.65};
    return s;
}

/** parse(serialize(spec)) must reproduce the canonical bytes. */
void
expectRoundTrip(const ScenarioSpec &spec)
{
    const std::string first = spec.toJson().toString();
    const ScenarioSpec reparsed =
        ScenarioSpec::fromJson(parsed(first));
    EXPECT_EQ(first, reparsed.toJson().toString())
        << "scenario class " << spec.model
        << " does not round-trip canonically";
}

TEST(ScenarioSpec, RoundTripsByteIdenticallyPerClass)
{
    expectRoundTrip(ScenarioSpec{}); // default iid
    expectRoundTrip(clusteredSpec());
    expectRoundTrip(burstSpec());
    expectRoundTrip(droopSpec());
}

TEST(ScenarioSpec, InlineJsonAndDefaultsParse)
{
    const ScenarioSpec s =
        ScenarioSpec::fromString("{\"model\": \"burst\"}");
    EXPECT_EQ(s.model, "burst");
    EXPECT_EQ(s.seed, 42u); // absent keys take their defaults
    EXPECT_DOUBLE_EQ(s.voltage, 0.625);
}

TEST(ScenarioSpec, StrictParseRejectsGarbage)
{
    const auto rejection = [](const char *text) {
        return errorText([&] { ScenarioSpec::fromJson(parsed(text)); });
    };
    EXPECT_EQ(rejection("{\"model\": \"quantum\"}"),
              "scenario: model must be one of iid|clustered|burst|droop");
    EXPECT_EQ(rejection("{\"mdoel\": \"iid\"}"),
              "scenario: unknown scenario key 'mdoel'")
        << "unknown keys must be rejected, not ignored";
    EXPECT_EQ(rejection("{\"format\": \"killi-scenario-v9\"}"),
              "scenario: unsupported format (expected "
              "\"killi-scenario-v1\")");
    EXPECT_EQ(rejection("{\"voltage\": 7.0}"),
              "scenario: voltage = 7 out of range [0.45, 1]");
}

/** The population two maps expose must match cell-for-cell. */
void
expectSamePopulation(const FaultMap &a, const FaultMap &b)
{
    ASSERT_EQ(a.numLines(), b.numLines());
    ASSERT_EQ(a.lineBits(), b.lineBits());
    for (std::size_t line = 0; line < a.numLines(); ++line) {
        const auto &fa = a.lineFaults(line);
        const auto &fb = b.lineFaults(line);
        ASSERT_EQ(fa.size(), fb.size()) << "line " << line;
        for (std::size_t i = 0; i < fa.size(); ++i) {
            EXPECT_EQ(fa[i].bit, fb[i].bit) << "line " << line;
            EXPECT_EQ(fa[i].stuckValue, fb[i].stuckValue)
                << "line " << line;
            EXPECT_FLOAT_EQ(fa[i].threshold, fb[i].threshold)
                << "line " << line;
        }
    }
}

TEST(FaultModel, SampledPopulationsArePinned)
{
    // Literal digests of the seed-42 2048x720 die of each sampler:
    // iid through the geometric skip sampler and through the per-bit
    // IidStuckAt::sampleReference, and the clustered and burst
    // classes. Any change to a draw, its order or the cell encoding
    // moves a digest.
    struct Pin
    {
        const char *model;
        bool reference;
        std::size_t cells;
        std::uint64_t digest;
    };
    const Pin pins[] = {
        {"iid", false, 170896, 0x5399b40fabb2b46bull},
        {"iid", true, 171289, 0xf7aa22b18c6203cdull},
        {"clustered", false, 205848, 0x6824999da0650758ull},
        {"burst", false, 172540, 0x87921642be02516eull},
    };
    for (const Pin &pin : pins) {
        ScenarioSpec spec;
        spec.model = pin.model;
        spec.seed = 42;
        const auto model = FaultModel::fromScenario(spec);
        const std::shared_ptr<const FaultPopulation> die = pin.reference
            ? IidStuckAt(spec).sampleReference(2048, 720)
            : model->sample(2048, 720);
        const auto map = pin.reference ? model->buildMapFrom(die, 720)
                                       : model->buildMap(2048, 720);
        std::size_t cells = 0;
        for (const auto &line : *die)
            cells += line.size();
        const std::string label = std::string(pin.model) +
            (pin.reference ? " (per-bit reference)" : "");
        EXPECT_EQ(cells, pin.cells) << label;
        EXPECT_EQ(populationDigest(*die), pin.digest)
            << label << std::hex << " digest 0x"
            << populationDigest(*die);
        // A built map (cold, or adopting the reference die) holds the
        // same die.
        EXPECT_EQ(populationDigest(map->population()), pin.digest)
            << label;
    }
}

TEST(FaultModel, SameScenarioSameDie)
{
    const ScenarioSpec spec = clusteredSpec();
    const auto m1 = FaultModel::fromScenario(spec);
    const auto m2 = FaultModel::fromScenario(
        ScenarioSpec::fromJson(spec.toJson()));
    const auto a = m1->buildMap(1024, 720);
    const auto b = m2->buildMap(1024, 720);
    expectSamePopulation(*a, *b);
}

/** Sum and sum-of-squares of per-line active fault counts. */
std::pair<double, double>
countMoments(const FaultMap &map, std::size_t *total = nullptr)
{
    double sum = 0, sumSq = 0;
    for (std::size_t line = 0; line < map.numLines(); ++line) {
        const double c = double(map.lineFaults(line).size());
        sum += c;
        sumSq += c * c;
    }
    if (total)
        *total = std::size_t(sum);
    return {sum, sumSq};
}

/** Variance-to-mean ratio of per-line fault counts: ~1 for a thin
 *  iid population, well above 1 when faults clump into weak rows and
 *  defect clusters. */
double
fanoFactor(const FaultMap &map)
{
    const auto [sum, sumSq] = countMoments(map);
    const double n = double(map.numLines());
    const double mean = sum / n;
    const double var = sumSq / n - mean * mean;
    return mean > 0 ? var / mean : 0.0;
}

TEST(FaultModel, ClusteredPopulationIsOverdispersed)
{
    constexpr std::size_t kLines = 8192;
    ScenarioSpec cl = clusteredSpec();
    cl.voltage = 0.6;
    ScenarioSpec iid;
    iid.seed = cl.seed;
    iid.voltage = cl.voltage;

    const auto clMap = FaultModel::fromScenario(cl)->buildMap(
        kLines, 720);
    const auto iidMap = FaultModel::fromScenario(iid)->buildMap(
        kLines, 720);

    std::size_t clTotal = 0;
    countMoments(*clMap, &clTotal);
    ASSERT_GT(clTotal, 100u)
        << "clustered population too thin to measure";

    const double clFano = fanoFactor(*clMap);
    const double iidFano = fanoFactor(*iidMap);
    // Weak rows put whole bursts of faults on a few lines: the
    // clustered model's line-count dispersion must clearly beat the
    // (approximately Poisson) iid model's.
    EXPECT_GT(clFano, 2.0 * iidFano + 1.0)
        << "clustered fano=" << clFano << " iid fano=" << iidFano;
}

/** Fraction of faults whose neighbouring bit is also faulty. */
double
adjacentFraction(const FaultMap &map)
{
    std::size_t faults = 0, adjacent = 0;
    for (std::size_t line = 0; line < map.numLines(); ++line) {
        const auto &cells = map.lineFaults(line);
        for (std::size_t i = 0; i < cells.size(); ++i) {
            ++faults;
            const bool left =
                i > 0 && cells[i].bit == cells[i - 1].bit + 1;
            const bool right = i + 1 < cells.size() &&
                cells[i + 1].bit == cells[i].bit + 1;
            if (left || right)
                ++adjacent;
        }
    }
    return faults > 0 ? double(adjacent) / double(faults) : 0.0;
}

TEST(FaultModel, BurstPopulationIsAdjacencyHeavy)
{
    constexpr std::size_t kLines = 8192;
    ScenarioSpec bu = burstSpec();
    bu.voltage = 0.6;
    ScenarioSpec iid;
    iid.seed = bu.seed;
    iid.voltage = bu.voltage;

    const auto buMap = FaultModel::fromScenario(bu)->buildMap(
        kLines, 720);
    const auto iidMap = FaultModel::fromScenario(iid)->buildMap(
        kLines, 720);

    const double buAdj = adjacentFraction(*buMap);
    const double iidAdj = adjacentFraction(*iidMap);
    // Byte-aligned bursts make runs of adjacent failing cells the
    // norm; iid adjacency at these densities is a rare coincidence.
    EXPECT_GT(buAdj, 0.3) << "burst adjacency " << buAdj;
    EXPECT_GT(buAdj, 4.0 * iidAdj + 0.05)
        << "burst adj=" << buAdj << " iid adj=" << iidAdj;
}

TEST(FaultModel, MonotoneGuardRejectsVoltageRaise)
{
    ScenarioSpec spec;
    spec.voltage = 0.625;
    const auto model = FaultModel::fromScenario(spec);
    const auto map = model->buildMap(64, 720);
    map->setVoltage(0.6); // lowering is always fine
    EXPECT_DEATH(map->setVoltage(0.7), "");
}

TEST(FaultModel, DroopMapsMayRaiseVoltage)
{
    const ScenarioSpec spec = droopSpec();
    const auto model = FaultModel::fromScenario(spec);
    EXPECT_FALSE(model->monotoneVoltage());
    EXPECT_EQ(model->voltageSchedule(), spec.droop.schedule);

    const auto map = model->buildMap(64, 720);
    EXPECT_DOUBLE_EQ(map->voltage(), spec.droop.schedule.front());
    for (const double v : spec.droop.schedule)
        map->setVoltage(v); // includes the raise back to 0.65
    EXPECT_DOUBLE_EQ(map->voltage(), spec.droop.schedule.back());
}

} // namespace
} // namespace killi

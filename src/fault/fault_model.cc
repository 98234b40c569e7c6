#include "fault/fault_model.hh"

#include <algorithm>
#include <cmath>

#include "common/log.hh"
#include "common/rng.hh"

namespace killi
{

namespace
{

/** Read-disturb share of iid-sampled faults; matches the legacy
 *  FaultMap constructor so mechanism statistics line up. */
constexpr double kReadShare = 0.45;

/**
 * Restore FaultMap's sorted-unique-by-bit invariant after correlated
 * placement may have landed a cluster/burst cell on a background
 * cell. Ties keep the lowest threshold (the cell that is active over
 * the widest voltage range — the physically weaker defect wins).
 */
void
sortAndDedupe(std::vector<FaultCell> &cells)
{
    std::sort(cells.begin(), cells.end(),
              [](const FaultCell &a, const FaultCell &b) {
                  if (a.bit != b.bit)
                      return a.bit < b.bit;
                  return a.threshold < b.threshold;
              });
    cells.erase(std::unique(cells.begin(), cells.end(),
                            [](const FaultCell &a, const FaultCell &b) {
                                return a.bit == b.bit;
                            }),
                cells.end());
    // The samplers grow lines with push_back; trim the slack so a
    // shared die's footprint (and the warm store's byte count) is
    // its cells.
    cells.shrink_to_fit();
}

} // namespace

std::unique_ptr<FaultMap>
FaultModel::buildMap(std::size_t num_lines, std::size_t line_bits) const
{
    return buildMapAt(num_lines, line_bits,
                      voltageSchedule().front());
}

std::unique_ptr<FaultMap>
FaultModel::buildMapAt(std::size_t num_lines, std::size_t line_bits,
                       double vNorm) const
{
    std::unique_ptr<FaultMap> map =
        samplePopulation(num_lines, line_bits);
    map->declareMonotoneVoltage(monotoneVoltage());
    map->setVoltage(vNorm);
    return map;
}

std::unique_ptr<FaultMap>
FaultModel::buildMapFrom(
    std::shared_ptr<const FaultPopulation> population,
    std::size_t line_bits) const
{
    auto map = std::make_unique<FaultMap>(std::move(population),
                                          line_bits, vm, sp.freqGHz,
                                          voltageSchedule().front());
    map->declareMonotoneVoltage(monotoneVoltage());
    return map;
}

std::unique_ptr<FaultMap>
FaultModel::buildMapFrom(FaultPopulation population,
                         std::size_t line_bits) const
{
    return buildMapFrom(
        std::make_shared<const FaultPopulation>(std::move(population)),
        line_bits);
}

std::unique_ptr<FaultModel>
FaultModel::fromScenario(const ScenarioSpec &spec)
{
    if (spec.model == "iid")
        return std::make_unique<IidStuckAt>(spec);
    if (spec.model == "clustered")
        return std::make_unique<ClusteredRowColumn>(spec);
    if (spec.model == "burst")
        return std::make_unique<BurstMixture>(spec);
    if (spec.model == "droop")
        return std::make_unique<DroopSchedule>(spec);
    fatal("FaultModel::fromScenario: unknown model '%s'",
          spec.model.c_str());
}

std::unique_ptr<FaultMap>
IidStuckAt::samplePopulation(std::size_t num_lines,
                             std::size_t line_bits) const
{
    // The compat shim: delegate to the (deprecated) direct
    // constructor so the default scenario stays bit-identical.
    return std::make_unique<FaultMap>(num_lines, line_bits, vm, sp.seed,
                                      sp.freqGHz);
}

std::unique_ptr<FaultMap>
ClusteredRowColumn::samplePopulation(std::size_t num_lines,
                                     std::size_t line_bits) const
{
    const ClusterParams &c = sp.cluster;
    const double pMin =
        vm.pCell(VoltageModel::minVoltage(), sp.freqGHz);
    const double pCluster = vm.pCell(c.clusterVmax, sp.freqGHz);

    const RngStreamScope stream("faultmap");
    Rng rng(sp.seed);
    std::vector<std::vector<FaultCell>> population(num_lines);

    // Weak bitline columns are a property of the array, shared by
    // every line; draw them first so the stream layout is stable.
    std::vector<bool> weakCol(line_bits);
    for (std::size_t bit = 0; bit < line_bits; ++bit)
        weakCol[bit] = rng.bernoulli(c.colFrac);

    // Background population: the iid reference loop with a per-cell
    // pCell boost. A boosted cell keeps the conditional-threshold
    // property by storing u/boost: it is active at voltage v iff
    // u < boost * pCell(v), i.e. it behaves like an iid cell whose
    // failure curve is scaled by its row/column boost.
    for (std::size_t lineId = 0; lineId < num_lines; ++lineId) {
        const bool weakRow = rng.bernoulli(c.rowFrac);
        auto &line = population[lineId];
        for (std::size_t bit = 0; bit < line_bits; ++bit) {
            const double boost = (weakRow ? c.rowBoost : 1.0) *
                                 (weakCol[bit] ? c.colBoost : 1.0);
            const double u = rng.uniform();
            if (u >= std::min(1.0, pMin * boost))
                continue;
            FaultCell cell;
            cell.bit = static_cast<std::uint16_t>(bit);
            cell.threshold = static_cast<float>(u / boost);
            cell.stuckValue = rng.bernoulli(0.5);
            cell.kind = rng.bernoulli(kReadShare)
                ? FaultKind::ReadDisturb : FaultKind::Writeability;
            line.push_back(cell);
        }
    }

    // Rectangular defect clusters: Poisson-placed, spanning
    // clusterLines x clusterBits, each covered cell included with
    // probability clusterP and failing below clusterVmax. Clusters
    // are manufacturing-defect-like, so they count as writeability
    // failures in mechanism statistics.
    const unsigned nClusters =
        rng.poisson(c.clusterRate * double(num_lines));
    for (unsigned k = 0; k < nClusters; ++k) {
        const std::size_t line0 = rng.below(num_lines);
        const std::size_t bit0 = rng.below(line_bits);
        const std::size_t lineEnd =
            std::min(num_lines, line0 + c.clusterLines);
        const std::size_t bitEnd =
            std::min(line_bits, bit0 + c.clusterBits);
        for (std::size_t lineId = line0; lineId < lineEnd; ++lineId) {
            for (std::size_t bit = bit0; bit < bitEnd; ++bit) {
                if (!rng.bernoulli(c.clusterP))
                    continue;
                FaultCell cell;
                cell.bit = static_cast<std::uint16_t>(bit);
                cell.threshold =
                    static_cast<float>(rng.uniform() * pCluster);
                cell.stuckValue = rng.bernoulli(0.5);
                cell.kind = FaultKind::Writeability;
                population[lineId].push_back(cell);
            }
        }
    }

    for (auto &line : population)
        sortAndDedupe(line);
    return std::make_unique<FaultMap>(std::move(population), line_bits,
                                      vm, sp.freqGHz);
}

std::unique_ptr<FaultMap>
BurstMixture::samplePopulation(std::size_t num_lines,
                               std::size_t line_bits) const
{
    const BurstParams &b = sp.burst;
    const double pMin =
        vm.pCell(VoltageModel::minVoltage(), sp.freqGHz);
    const double pBurst = vm.pCell(b.burstVmax, sp.freqGHz);
    const std::size_t lineBytes = (line_bits + 7) / 8;

    const RngStreamScope stream("faultmap");
    Rng rng(sp.seed);
    std::vector<std::vector<FaultCell>> population(num_lines);
    for (std::size_t lineId = 0; lineId < num_lines; ++lineId) {
        auto &line = population[lineId];
        // iid background, identical in law to the reference sampler.
        for (std::size_t bit = 0; bit < line_bits; ++bit) {
            const double u = rng.uniform();
            if (u >= pMin)
                continue;
            FaultCell cell;
            cell.bit = static_cast<std::uint16_t>(bit);
            cell.threshold = static_cast<float>(u);
            cell.stuckValue = rng.bernoulli(0.5);
            cell.kind = rng.bernoulli(kReadShare)
                ? FaultKind::ReadDisturb : FaultKind::Writeability;
            line.push_back(cell);
        }
        // Byte-aligned bursts: runs of adjacent cells coupling below
        // burstVmax — the multi-bit pattern single-error SECDED
        // cannot correct. Coupled upsets read as read-disturb.
        const unsigned nBursts = rng.poisson(b.burstRate);
        for (unsigned k = 0; k < nBursts; ++k) {
            const std::size_t byte0 = rng.below(lineBytes);
            const std::size_t lenBytes =
                rng.range(b.lenMinBytes, b.lenMaxBytes);
            const std::size_t bitEnd =
                std::min(line_bits, (byte0 + lenBytes) * 8);
            for (std::size_t bit = byte0 * 8; bit < bitEnd; ++bit) {
                if (!rng.bernoulli(b.pWithin))
                    continue;
                FaultCell cell;
                cell.bit = static_cast<std::uint16_t>(bit);
                cell.threshold =
                    static_cast<float>(rng.uniform() * pBurst);
                cell.stuckValue = rng.bernoulli(0.5);
                cell.kind = FaultKind::ReadDisturb;
                line.push_back(cell);
            }
        }
        sortAndDedupe(line);
    }
    return std::make_unique<FaultMap>(std::move(population), line_bits,
                                      vm, sp.freqGHz);
}

DroopSchedule::DroopSchedule(const ScenarioSpec &spec) : FaultModel(spec)
{
    ScenarioSpec baseSpec = spec;
    baseSpec.model = spec.droop.base;
    base = FaultModel::fromScenario(baseSpec);
}

std::vector<double>
DroopSchedule::voltageSchedule() const
{
    if (sp.droop.schedule.empty())
        return {sp.voltage};
    return sp.droop.schedule;
}

std::unique_ptr<FaultMap>
DroopSchedule::samplePopulation(std::size_t num_lines,
                                std::size_t line_bits) const
{
    return samplePopulationOf(*base, num_lines, line_bits);
}

} // namespace killi

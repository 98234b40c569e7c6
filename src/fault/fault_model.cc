#include "fault/fault_model.hh"

#include <algorithm>
#include <cmath>

#include "common/log.hh"
#include "common/rng.hh"

namespace killi
{

namespace
{

/** Read-disturb share of iid-drawn faults (the rest are
 *  writeability failures), common to every sampler so mechanism
 *  statistics line up across scenario classes. */
constexpr double kReadShare = 0.45;

/** Does a die sampled under @p cover keep a cell of @p threshold?
 *  The same promoted comparison FaultMap activates with, so a kept
 *  cell is exactly one that some covered voltage can activate. */
bool
covered(float threshold, double cover)
{
    return double(threshold) < cover;
}

/**
 * The per-bit reference draw of one cell: u, then — only when the
 * cell is faulty (u < @p p) — its stuck value, then its kind, in
 * that order. The faulty cell's threshold is u / @p boost, so a cell
 * whose failure curve is scaled by @p boost (a weak row or column)
 * is active at voltage v iff u < boost * pCell(v); unboosted, the
 * threshold is u itself, conditionally uniform in [0, p). The cell
 * is kept only under @p cover, but its draws are made regardless.
 */
void
drawCell(Rng &rng, std::vector<FaultCell> &line, std::size_t bit,
         double p, double cover, double boost = 1.0)
{
    const double u = rng.uniform();
    if (u >= p)
        return;
    FaultCell cell;
    cell.bit = static_cast<std::uint16_t>(bit);
    cell.threshold = static_cast<float>(u / boost);
    cell.stuckValue = rng.bernoulli(0.5);
    cell.kind = rng.bernoulli(kReadShare) ? FaultKind::ReadDisturb
                                          : FaultKind::Writeability;
    if (covered(cell.threshold, cover))
        line.push_back(cell);
}

/**
 * Exact inverse-CDF sampler for Geometric(p) gaps (number of clean
 * cells before the next faulty one).
 *
 * The closed form floor(log1p(-u)/log1p(-p)) costs a transcendental
 * per draw, which dominates sampling when p is large (mean gap 1/p
 * is short, so gaps are drawn constantly). Instead the first K gap
 * values get an explicit CDF table, searched from a 4096-bucket
 * direct index on the top bits of u and finished with the exact
 * boundary compares — bit-identical to inverse-CDF sampling, no
 * approximation. The tail (u past the table, probability (1-p)^K)
 * falls back to the closed form; for sparse dies that is the common
 * case, but then gaps outrun the line and only ~one draw per line
 * happens at all.
 */
class GeometricSampler
{
  public:
    explicit GeometricSampler(double p)
        : logq(std::log1p(-p))
    {
        double qpow = 1.0; // (1-p)^g
        for (std::size_t g = 0; g < K; ++g) {
            qpow *= 1.0 - p;
            cdf[g] = 1.0 - qpow; // P(gap <= g)
        }
        // startAt[b]: the first gap whose cdf exceeds the bucket's
        // lowest u (nondecreasing in b). Every gap below it is below
        // any u in the bucket, so draw() may skip them.
        std::size_t g = 0;
        for (std::size_t b = 0; b < kBuckets; ++b) {
            const double lo = double(b) / double(kBuckets);
            while (g + 1 < K && cdf[g] <= lo)
                ++g;
            startAt[b] = static_cast<std::uint8_t>(g);
        }
    }

    /** Draw a gap, clamped to @p remaining. */
    std::size_t
    draw(Rng &rng, std::size_t remaining) const
    {
        const double u = rng.uniform();
        if (u < cdf[K - 1]) {
            std::size_t g = startAt[std::size_t(u * double(kBuckets))];
            while (u >= cdf[g])
                ++g;
            return g < remaining ? g : remaining;
        }
        const double g = std::floor(std::log1p(-u) / logq);
        return g < double(remaining) ? std::size_t(g) : remaining;
    }

  private:
    static constexpr std::size_t K = 64;
    static constexpr std::size_t kBuckets = 4096;
    double cdf[K];
    std::uint8_t startAt[kBuckets];
    double logq;
};

/**
 * Restore FaultMap's sorted-unique-by-bit invariant after correlated
 * placement may have landed a cluster/burst cell on a background
 * cell. Ties keep the lowest threshold (the cell that is active over
 * the widest voltage range — the physically weaker defect wins).
 *
 * The order is total over a cell's fields, so the survivor of a bit
 * does not depend on the input order. That makes a cover commute
 * with this step: the survivor has its bit's lowest threshold, so it
 * is under the cover iff any of its bit's cells is, and dropping the
 * cells at or above the cover first leaves the same survivor.
 */
void
sortAndDedupe(std::vector<FaultCell> &cells)
{
    std::sort(cells.begin(), cells.end(),
              [](const FaultCell &a, const FaultCell &b) {
                  if (a.bit != b.bit)
                      return a.bit < b.bit;
                  if (a.threshold != b.threshold)
                      return a.threshold < b.threshold;
                  if (a.stuckValue != b.stuckValue)
                      return a.stuckValue < b.stuckValue;
                  return a.kind < b.kind;
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
                       double vNorm, double cover) const
{
    return std::make_unique<FaultMap>(
        sample(num_lines, line_bits, cover), line_bits, sp.freqGHz,
        vNorm, monotoneVoltage(), cover);
}

std::unique_ptr<FaultMap>
FaultModel::buildMapFrom(
    std::shared_ptr<const FaultPopulation> population,
    std::size_t line_bits, double cover) const
{
    return std::make_unique<FaultMap>(std::move(population), line_bits,
                                      sp.freqGHz,
                                      voltageSchedule().front(),
                                      monotoneVoltage(), cover);
}

std::unique_ptr<FaultMap>
FaultModel::buildMapFrom(FaultPopulation population,
                         std::size_t line_bits) const
{
    return buildMapFrom(
        std::make_shared<FaultPopulation>(std::move(population)),
        line_bits);
}

double
FaultModel::coverFor(const std::vector<double> &voltages) const
{
    double cover = 0.0;
    for (const double v : voltages)
        cover = std::max(cover, vm.pCell(v, sp.freqGHz));
    return cover;
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

std::shared_ptr<const FaultPopulation>
IidStuckAt::sampleReference(std::size_t num_lines,
                            std::size_t line_bits, double cover) const
{
    // Every cell that could ever fail in the model's range: the
    // population at the lowest supported voltage.
    const double pMax =
        vm.pCell(VoltageModel::minVoltage(), sp.freqGHz);

    const RngStreamScope stream("faultmap");
    Rng rng(sp.seed);
    auto population = std::make_shared<FaultPopulation>(num_lines);
    for (auto &line : *population) {
        for (std::size_t bit = 0; bit < line_bits; ++bit)
            drawCell(rng, line, bit, pMax, cover);
    }
    return population;
}

std::shared_ptr<const FaultPopulation>
IidStuckAt::samplePopulation(std::size_t num_lines,
                             std::size_t line_bits, double cover) const
{
    const double pMax =
        vm.pCell(VoltageModel::minVoltage(), sp.freqGHz);
    // The degenerate everything-fails case has no gaps to skip.
    if (pMax >= 1.0)
        return sampleReference(num_lines, line_bits, cover);

    const RngStreamScope stream("faultmap");
    Rng rng(sp.seed);
    auto population = std::make_shared<FaultPopulation>(num_lines);
    if (pMax > 0.0) {
        // Geometric skip sampling: the gap to the next faulty cell
        // in an iid Bernoulli(pMax) sequence is Geometric(pMax), so
        // skip whole runs of clean cells and pay one RNG draw per
        // *fault* (plus one per line to detect "no more"), not one
        // per bit. Memorylessness makes the per-line truncation
        // exact: restarting the gap at each line boundary leaves
        // every cell marginally Bernoulli(pMax). The faulty cell's
        // threshold is then conditionally uniform in [0, pMax),
        // matching the reference sampler's u | u<pMax; threshold,
        // stuck value and fault kind all come from disjoint bits of
        // one 64-bit draw (43 + 1 + 20 — the threshold is stored as
        // a float anyway, and 2^-20 granularity on the kind share is
        // far below any measurable effect). A cell outside the cover
        // is dropped after its draws. Lines are staged in one
        // reusable scratch buffer so each line's backing store is a
        // single exact-sized allocation instead of a growth chain.
        const GeometricSampler geo(pMax);
        const std::uint32_t kindCut =
            static_cast<std::uint32_t>(kReadShare * 1048576.0);
        std::vector<FaultCell> scratch;
        scratch.reserve(line_bits);
        for (auto &line : *population) {
            scratch.clear();
            std::size_t bit = 0;
            while (bit < line_bits) {
                const std::size_t gap =
                    geo.draw(rng, line_bits - bit);
                bit += gap;
                if (bit >= line_bits)
                    break;
                const std::uint64_t r = rng.next64();
                const float threshold =
                    static_cast<float>((r >> 21) * 0x1.0p-43 * pMax);
                if (covered(threshold, cover)) {
                    FaultCell cell;
                    cell.bit = static_cast<std::uint16_t>(bit);
                    cell.threshold = threshold;
                    cell.stuckValue = (r & 1) != 0;
                    cell.kind = ((r >> 1) & 0xFFFFF) < kindCut
                        ? FaultKind::ReadDisturb
                        : FaultKind::Writeability;
                    scratch.push_back(cell);
                }
                ++bit;
            }
            line.assign(scratch.begin(), scratch.end());
        }
    }
    return population;
}

std::shared_ptr<const FaultPopulation>
ClusteredRowColumn::samplePopulation(std::size_t num_lines,
                                     std::size_t line_bits,
                                     double cover) const
{
    const ClusterParams &c = sp.cluster;
    const double pMin =
        vm.pCell(VoltageModel::minVoltage(), sp.freqGHz);
    const double pCluster = vm.pCell(c.clusterVmax, sp.freqGHz);

    const RngStreamScope stream("faultmap");
    Rng rng(sp.seed);
    auto population = std::make_shared<FaultPopulation>(num_lines);

    // Weak bitline columns are a property of the array, shared by
    // every line; draw them first so the stream layout is stable.
    std::vector<bool> weakCol(line_bits);
    for (std::size_t bit = 0; bit < line_bits; ++bit)
        weakCol[bit] = rng.bernoulli(c.colFrac);

    // Background population: the iid reference draw with a per-cell
    // pCell boost, i.e. each cell behaves like an iid cell whose
    // failure curve is scaled by its row/column boost.
    for (auto &line : *population) {
        const bool weakRow = rng.bernoulli(c.rowFrac);
        for (std::size_t bit = 0; bit < line_bits; ++bit) {
            const double boost = (weakRow ? c.rowBoost : 1.0) *
                                 (weakCol[bit] ? c.colBoost : 1.0);
            drawCell(rng, line, bit, std::min(1.0, pMin * boost), cover,
                     boost);
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
                if (covered(cell.threshold, cover))
                    (*population)[lineId].push_back(cell);
            }
        }
    }

    for (auto &line : *population)
        sortAndDedupe(line);
    return population;
}

std::shared_ptr<const FaultPopulation>
BurstMixture::samplePopulation(std::size_t num_lines,
                               std::size_t line_bits, double cover) const
{
    const BurstParams &b = sp.burst;
    const double pMin =
        vm.pCell(VoltageModel::minVoltage(), sp.freqGHz);
    const double pBurst = vm.pCell(b.burstVmax, sp.freqGHz);
    const std::size_t lineBytes = (line_bits + 7) / 8;

    const RngStreamScope stream("faultmap");
    Rng rng(sp.seed);
    auto population = std::make_shared<FaultPopulation>(num_lines);
    for (auto &line : *population) {
        // iid background: the reference sampler's draws.
        for (std::size_t bit = 0; bit < line_bits; ++bit)
            drawCell(rng, line, bit, pMin, cover);
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
                if (covered(cell.threshold, cover))
                    line.push_back(cell);
            }
        }
        sortAndDedupe(line);
    }
    return population;
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

std::shared_ptr<const FaultPopulation>
DroopSchedule::samplePopulation(std::size_t num_lines,
                                std::size_t line_bits, double cover) const
{
    return base->sample(num_lines, line_bits, cover);
}

} // namespace killi

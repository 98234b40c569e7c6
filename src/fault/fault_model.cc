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

/** The integer cut of failure probability @p p: a reference draw
 *  k = next64() >> 11 (uniform() is k * 2^-53, exactly) is faulty iff
 *  k < cutOf(p), the same test as uniform() < p. Scaling by 2^53 is
 *  exact and k is an integer, so k < p * 2^53 iff k < ceil(p * 2^53). */
std::uint64_t
cutOf(double p)
{
    if (!(p > 0.0))
        return 0;
    if (p >= 1.0)
        return std::uint64_t{1} << 53;
    return static_cast<std::uint64_t>(std::ceil(p * 0x1.0p53));
}

/** bernoulli(0.5) and bernoulli(kReadShare) as integer cuts. */
const std::uint64_t kStuckCut = cutOf(0.5);
const std::uint64_t kReadCut = cutOf(kReadShare);

/** Per-bit tables of a line's reference draws: bit b fails iff its
 *  draw k < cut[b], and a failing cell's threshold is u / boost[b]
 *  (u = k * 2^-53), so a cell whose failure curve is scaled by
 *  boost[b] (a weak row or column) is active at voltage v iff
 *  u < boost[b] * pCell(v). Unboosted, the threshold is u itself,
 *  conditionally uniform in [0, p). */
struct LineTables
{
    /** Every bit fails with @p p, unboosted. */
    LineTables(std::size_t line_bits, double p)
        : cut(line_bits, cutOf(p)), boost(line_bits, 1.0)
    {
    }

    std::vector<std::uint64_t> cut;
    std::vector<double> boost;
};

/** A line's staging buffer: sized without zero-filling. */
using LineScratch = std::vector<FaultCell, UninitAllocator<FaultCell>>;

/**
 * The per-bit reference draws of one line into @p scratch: for each
 * bit, k; then, only when the cell is faulty, its stuck value, then
 * its kind, in that order. A faulty cell is kept only under @p cover,
 * but its draws are made regardless. @p scratch ends up holding the
 * kept cells, sorted strictly by bit, one per bit.
 */
void
drawLine(Rng &rng, LineScratch &scratch, const LineTables &t,
         double cover)
{
    const std::size_t lineBits = t.cut.size();
    const std::uint64_t *cut = t.cut.data();
    const double *boost = t.boost.data();
    scratch.resize(lineBits);
    FaultCell *out = scratch.data();
    // A local copy keeps the generator's state in registers; through
    // the reference, every cell store could alias it.
    Rng local = rng;
    std::size_t n = 0;
    for (std::size_t bit = 0; bit < lineBits; ++bit) {
        const std::uint64_t k = local.next64() >> 11;
        if (k >= cut[bit])
            continue;
        FaultCell &cell = out[n];
        cell.bit = static_cast<std::uint16_t>(bit);
        cell.threshold =
            static_cast<float>(double(k) * 0x1.0p-53 / boost[bit]);
        cell.stuckValue = (local.next64() >> 11) < kStuckCut;
        cell.kind = (local.next64() >> 11) < kReadCut
            ? FaultKind::ReadDisturb
            : FaultKind::Writeability;
        // Stored either way; kept by advancing past it.
        n += covered(cell.threshold, cover);
    }
    rng = local;
    scratch.resize(n);
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
template <typename Cells>
void
sortAndDedupe(Cells &cells)
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
    const LineTables tables(line_bits, pMax);
    LineScratch scratch;
    for (auto &line : *population) {
        drawLine(rng, scratch, tables, cover);
        line.assign(scratch.begin(), scratch.end());
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
    // failure curve is scaled by its row/column boost. One table
    // pair for normal rows, one for weak rows.
    LineTables normal(line_bits, 0.0), weak(line_bits, 0.0);
    for (const bool weakRow : {false, true}) {
        LineTables &t = weakRow ? weak : normal;
        for (std::size_t bit = 0; bit < line_bits; ++bit) {
            t.boost[bit] = (weakRow ? c.rowBoost : 1.0) *
                           (weakCol[bit] ? c.colBoost : 1.0);
            t.cut[bit] = cutOf(std::min(1.0, pMin * t.boost[bit]));
        }
    }
    LineScratch scratch;
    for (auto &line : *population) {
        const bool weakRow = rng.bernoulli(c.rowFrac);
        drawLine(rng, scratch, weakRow ? weak : normal, cover);
        line.assign(scratch.begin(), scratch.end());
    }

    // Rectangular defect clusters: Poisson-placed, spanning
    // clusterLines x clusterBits, each covered cell included with
    // probability clusterP and failing below clusterVmax. Clusters
    // are manufacturing-defect-like, so they count as writeability
    // failures in mechanism statistics.
    const unsigned nClusters =
        rng.poisson(c.clusterRate * double(num_lines));
    std::vector<bool> touched(num_lines);
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
                if (covered(cell.threshold, cover)) {
                    (*population)[lineId].push_back(cell);
                    touched[lineId] = true;
                }
            }
        }
    }

    // Only a line a cluster added a cell to can be out of order; trim
    // its growth slack so a shared die's footprint (and the warm
    // store's byte count) is its cells.
    for (std::size_t lineId = 0; lineId < num_lines; ++lineId) {
        if (!touched[lineId])
            continue;
        std::vector<FaultCell> &line = (*population)[lineId];
        sortAndDedupe(line);
        line.shrink_to_fit();
    }
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
    const LineTables tables(line_bits, pMin);
    LineScratch scratch;
    for (auto &line : *population) {
        // iid background: the reference sampler's draws.
        drawLine(rng, scratch, tables, cover);
        const std::size_t background = scratch.size();
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
                    scratch.push_back(cell);
            }
        }
        // The background alone is already sorted strictly by bit.
        if (scratch.size() != background)
            sortAndDedupe(scratch);
        line.assign(scratch.begin(), scratch.end());
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

/**
 * @file
 * Fault-model hierarchy: one ScenarioSpec in, sampled dies and
 * FaultMaps out.
 *
 * A FaultModel owns all population sampling: sample() draws a die's
 * potential-fault population once, and the buildMap*() family adopts
 * a population into a FaultMap (fault_map.hh), which only holds the
 * cells active at its voltage. Besides the paper's iid per-bit
 * stuck-at assumption (§6), the models express the spatially-
 * correlated populations real LV SRAM exhibits (MoRS-style weak
 * rows/columns and defect clusters, multi-bit byte-aligned bursts)
 * and time-varying voltage regimes:
 *
 *  - IidStuckAt         "iid"       iid per-bit stuck-at cells
 *  - ClusteredRowColumn "clustered" weak-row/weak-column pCell boosts
 *                                   plus rectangular defect clusters
 *  - BurstMixture       "burst"     iid background plus byte-aligned
 *                                   multi-bit bursts
 *  - DroopSchedule      "droop"     any base population driven
 *                                   through a voltage schedule (may
 *                                   raise V; maps are non-monotone)
 *
 * Sampling is deterministic in (spec, geometry): every call draws
 * the same die from the scenario's seed on the "faultmap" RNG stream.
 * A caller that knows its operating points passes their cover
 * (coverFor(); see fault_map.hh): the sampler makes the same draws
 * but keeps only the cells those points can activate. The default
 * iid die shrinks from 2.7M cells (every cell that fails at 0.45 V)
 * to the 7K the paper's 0.625 V point activates.
 *
 * There is one sampler per model. The per-bit samplers (the iid
 * reference, and the clustered and burst backgrounds) share one
 * per-line kernel: a cell draws k = next64() >> 11 and is faulty iff
 * k < ceil(pCell * 2^53), an exact integer form of uniform() < pCell,
 * against per-bit tables of cut and boost; a faulty cell then draws
 * its stuck value and its kind. IidStuckAt additionally exposes that
 * kernel over an iid die (sampleReference(), the per-bit sampler its
 * skip sampler replaced) as a separate entry point for tests and
 * codec_micro's reference twins.
 */

#ifndef KILLI_FAULT_FAULT_MODEL_HH
#define KILLI_FAULT_FAULT_MODEL_HH

#include <memory>
#include <vector>

#include "fault/fault_map.hh"
#include "fault/scenario_spec.hh"
#include "fault/voltage_model.hh"

namespace killi
{

class FaultModel
{
  public:
    virtual ~FaultModel() = default;

    FaultModel(const FaultModel &) = delete;
    FaultModel &operator=(const FaultModel &) = delete;

    const ScenarioSpec &spec() const { return sp; }
    const VoltageModel &voltageModel() const { return vm; }

    /**
     * Sample the scenario's potential-fault population for an array
     * of @p num_lines x @p line_bits cells, each line sorted strictly
     * by bit. Positions are 16-bit (FaultMap rejects wider lines at
     * adoption).
     *
     * With no @p cover the die holds every cell that could fail
     * anywhere in the model's voltage range. Under a cover it keeps
     * only the cells with threshold < cover: at every voltage whose
     * pCell is at most the cover it activates cell for cell like the
     * full die. The sampler makes the same RNG draws in the same
     * order either way, so a recording cannot tell the two apart.
     */
    std::shared_ptr<const FaultPopulation>
    sample(std::size_t num_lines, std::size_t line_bits,
           double cover = kNoCover) const
    {
        return samplePopulation(num_lines, line_bits, cover);
    }

    /** The cover of @p voltages: their largest pCell at the
     *  scenario's frequency. */
    double coverFor(const std::vector<double> &voltages) const;

    /** Sample a full die and adopt it at the first operating point
     *  of voltageSchedule(). */
    std::unique_ptr<FaultMap>
    buildMap(std::size_t num_lines, std::size_t line_bits) const;

    /**
     * buildMap(), but activate @p vNorm instead of the schedule's
     * first operating point, and sample under @p cover. The
     * voltage-sweep engine uses this to start a monotone map at the
     * sweep's highest point (buildMap() would already be at
     * spec().voltage, above which a monotone map cannot be raised).
     */
    std::unique_ptr<FaultMap>
    buildMapAt(std::size_t num_lines, std::size_t line_bits,
               double vNorm, double cover = kNoCover) const;

    /**
     * Adopt an already-sampled population (sample() of this same
     * model under at least @p cover) at the schedule's first
     * operating point instead of resampling — sweep campaigns and the
     * kserved warm store share one die keyed by (scenario, geometry,
     * seed, build). The map shares @p population without copying it
     * and is bit-identical to a cold buildMap().
     */
    std::unique_ptr<FaultMap>
    buildMapFrom(std::shared_ptr<const FaultPopulation> population,
                 std::size_t line_bits, double cover = kNoCover) const;

    /** buildMapFrom() of a population passed by value (moved into a
     *  shared one). */
    std::unique_ptr<FaultMap>
    buildMapFrom(FaultPopulation population,
                 std::size_t line_bits) const;

    /**
     * Does this model promise never to raise voltage after a map is
     * built? Monotone maps enforce the DAC'17 superset invariant in
     * FaultMap::setVoltage(); DroopSchedule returns false so its
     * schedule may legally raise V.
     */
    virtual bool monotoneVoltage() const { return true; }

    /** Operating points a full evaluation should visit, in order.
     *  A single point (spec().voltage) for everything but droop. */
    virtual std::vector<double>
    voltageSchedule() const
    {
        return {sp.voltage};
    }

    /** Instantiate the model class named by @p spec.model. */
    static std::unique_ptr<FaultModel>
    fromScenario(const ScenarioSpec &spec);

  protected:
    explicit FaultModel(const ScenarioSpec &spec) : sp(spec) {}

    /** sample(), one per model class. */
    virtual std::shared_ptr<const FaultPopulation>
    samplePopulation(std::size_t num_lines, std::size_t line_bits,
                     double cover) const = 0;

    ScenarioSpec sp;
    VoltageModel vm;
};

/**
 * The paper's evaluation model: iid per-bit stuck-at faults.
 *
 * sample() draws with geometric skip sampling (two RNG draws per
 * potential fault, not one per bit). sampleReference() is the per-bit
 * sampler it replaced, kept as the distributional baseline for tests
 * and the BM_FaultMapSample twin in codec_micro. tests/scenario_spec_test.cc
 * pins both.
 */
class IidStuckAt final : public FaultModel
{
  public:
    explicit IidStuckAt(const ScenarioSpec &spec) : FaultModel(spec) {}

    /** The per-bit reference sampler: the shared per-line kernel
     *  with one cut for every bit, so one draw per cell (k faulty
     *  iff k < ceil(pMax * 2^53), the same test as uniform() < pMax)
     *  and two more per faulty cell. sample() delegates here when
     *  every cell fails (pMax >= 1). */
    std::shared_ptr<const FaultPopulation>
    sampleReference(std::size_t num_lines, std::size_t line_bits,
                    double cover = kNoCover) const;

  private:
    std::shared_ptr<const FaultPopulation>
    samplePopulation(std::size_t num_lines, std::size_t line_bits,
                     double cover) const override;
};

/**
 * MoRS-style spatially-correlated population: a fraction of weak
 * wordlines (rows) and weak bitline columns whose cells fail with a
 * boosted pCell, plus Poisson-placed rectangular defect clusters
 * whose cells fail below a cluster activation voltage.
 */
class ClusteredRowColumn final : public FaultModel
{
  public:
    explicit ClusteredRowColumn(const ScenarioSpec &spec)
        : FaultModel(spec)
    {
    }

  private:
    std::shared_ptr<const FaultPopulation>
    samplePopulation(std::size_t num_lines, std::size_t line_bits,
                     double cover) const override;
};

/**
 * Multi-bit burst population: the iid background plus Poisson-placed
 * byte-aligned bursts of adjacent failing cells (the multi-bit upset
 * class single-bit-oriented SECDED protection cannot correct).
 */
class BurstMixture final : public FaultModel
{
  public:
    explicit BurstMixture(const ScenarioSpec &spec) : FaultModel(spec)
    {
    }

  private:
    std::shared_ptr<const FaultPopulation>
    samplePopulation(std::size_t num_lines, std::size_t line_bits,
                     double cover) const override;
};

/**
 * Time-varying voltage regime over any base population. The base
 * model (spec().droop.base) supplies the cells; voltageSchedule()
 * replays spec().droop.schedule, which may raise as well as lower V,
 * so built maps are non-monotone.
 */
class DroopSchedule final : public FaultModel
{
  public:
    explicit DroopSchedule(const ScenarioSpec &spec);

    bool monotoneVoltage() const override { return false; }
    std::vector<double> voltageSchedule() const override;

  private:
    /** The base model's population. */
    std::shared_ptr<const FaultPopulation>
    samplePopulation(std::size_t num_lines, std::size_t line_bits,
                     double cover) const override;

    std::unique_ptr<FaultModel> base;
};

} // namespace killi

#endif // KILLI_FAULT_FAULT_MODEL_HH

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
 * There is one sampler per model; IidStuckAt additionally exposes the
 * per-bit sampler its skip sampler replaced (sampleReference()) as a
 * separate entry point for tests and bench/hotpath.
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
     * of @p num_lines x @p line_bits cells: every cell that could
     * fail anywhere in the model's voltage range, each line sorted
     * strictly by bit. Positions are 16-bit (FaultMap rejects wider
     * lines at adoption).
     */
    virtual std::shared_ptr<const FaultPopulation>
    sample(std::size_t num_lines, std::size_t line_bits) const = 0;

    /** Sample a die and adopt it at the first operating point of
     *  voltageSchedule(). */
    std::unique_ptr<FaultMap>
    buildMap(std::size_t num_lines, std::size_t line_bits) const;

    /**
     * buildMap(), but activate @p vNorm instead of the schedule's
     * first operating point. The voltage-sweep engine uses this to
     * start a monotone map at the sweep's highest point (buildMap()
     * would already be at spec().voltage, above which a monotone map
     * cannot be raised).
     */
    std::unique_ptr<FaultMap>
    buildMapAt(std::size_t num_lines, std::size_t line_bits,
               double vNorm) const;

    /**
     * Adopt an already-sampled population (sample() of this same
     * model) at the schedule's first operating point instead of
     * resampling — sweep points and the kserved warm store share one
     * die keyed by (scenario, geometry, seed, build). The map shares
     * @p population without copying it and is bit-identical to a
     * cold buildMap().
     */
    std::unique_ptr<FaultMap>
    buildMapFrom(std::shared_ptr<const FaultPopulation> population,
                 std::size_t line_bits) const;

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

    ScenarioSpec sp;
    VoltageModel vm;
};

/**
 * The paper's evaluation model: iid per-bit stuck-at faults.
 *
 * sample() draws with geometric skip sampling (one RNG draw per
 * fault, not per bit). sampleReference() is the per-bit sampler it
 * replaced, kept as the distributional baseline for tests and the
 * bench/hotpath construction timing. tests/scenario_spec_test.cc
 * pins both.
 */
class IidStuckAt final : public FaultModel
{
  public:
    explicit IidStuckAt(const ScenarioSpec &spec) : FaultModel(spec) {}

    std::shared_ptr<const FaultPopulation>
    sample(std::size_t num_lines, std::size_t line_bits) const override;

    /** The per-bit reference sampler: one uniform draw per cell.
     *  sample() delegates here when every cell fails (pMax >= 1). */
    std::shared_ptr<const FaultPopulation>
    sampleReference(std::size_t num_lines, std::size_t line_bits) const;
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

    std::shared_ptr<const FaultPopulation>
    sample(std::size_t num_lines, std::size_t line_bits) const override;
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

    std::shared_ptr<const FaultPopulation>
    sample(std::size_t num_lines, std::size_t line_bits) const override;
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

    /** The base model's population. */
    std::shared_ptr<const FaultPopulation>
    sample(std::size_t num_lines, std::size_t line_bits) const override;

  private:
    std::unique_ptr<FaultModel> base;
};

} // namespace killi

#endif // KILLI_FAULT_FAULT_MODEL_HH

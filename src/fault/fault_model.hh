/**
 * @file
 * Fault-model factory hierarchy: one ScenarioSpec in, FaultMaps out.
 *
 * FaultModel is the single construction path for fault populations.
 * Where FaultMap's own constructor bakes in iid per-bit stuck-at
 * sampling (the paper's §6 evaluation assumption), the models here
 * also express the spatially-correlated populations real LV SRAM
 * exhibits (MoRS-style weak rows/columns and defect clusters,
 * multi-bit byte-aligned bursts) and time-varying voltage regimes:
 *
 *  - IidStuckAt        "iid"       bit-identical to the legacy
 *                                  FaultMap constructor
 *  - ClusteredRowColumn "clustered" weak-row/weak-column pCell boosts
 *                                  plus rectangular defect clusters
 *  - BurstMixture      "burst"     iid background plus byte-aligned
 *                                  multi-bit bursts
 *  - DroopSchedule     "droop"     any base population driven through
 *                                  a voltage schedule (may raise V;
 *                                  maps are declared non-monotone)
 *
 * The model owns the VoltageModel its maps read probabilities from,
 * so a FaultModel must outlive every FaultMap it builds.
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
     * Sample the scenario's fault population for an array of
     * @p num_lines x @p line_bits cells and activate the first
     * operating point of voltageSchedule(). The returned map keeps a
     * reference into this model's VoltageModel: the model must
     * outlive the map.
     */
    std::unique_ptr<FaultMap>
    buildMap(std::size_t num_lines, std::size_t line_bits) const;

    /**
     * buildMap(), but activate @p vNorm instead of the schedule's
     * first operating point. The voltage-sweep engine uses this to
     * start a monotone map at the sweep's highest point (buildMap()
     * would already have stepped to spec().voltage, below which a
     * monotone map cannot be raised).
     */
    std::unique_ptr<FaultMap>
    buildMapAt(std::size_t num_lines, std::size_t line_bits,
               double vNorm) const;

    /**
     * Build a map from an already-sampled potential-fault
     * population (FaultMap::sharedPopulation() of a map this same
     * model built) instead of resampling — sweep points and the
     * kserved warm store share one sampled die keyed by (scenario,
     * geometry, seed, build). The map adopts @p population without
     * copying it and activates the schedule's first operating point
     * in one pass; it is bit-identical to a cold buildMap().
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
     * Does this model promise never to raise voltage after
     * construction? Monotone maps enforce the DAC'17 superset
     * invariant in FaultMap::setVoltage(); DroopSchedule returns
     * false so its schedule may legally raise V.
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

    /** Sample the potential-fault population (voltage handling is
     *  buildMap()'s job; the returned map is still at 1.0 x VDD). */
    virtual std::unique_ptr<FaultMap>
    samplePopulation(std::size_t num_lines,
                     std::size_t line_bits) const = 0;

    /** Cross-instance access to samplePopulation() for wrapper
     *  models (DroopSchedule delegates to its base model). */
    static std::unique_ptr<FaultMap>
    samplePopulationOf(const FaultModel &model, std::size_t num_lines,
                       std::size_t line_bits)
    {
        return model.samplePopulation(num_lines, line_bits);
    }

    ScenarioSpec sp;
    VoltageModel vm;
};

/**
 * The paper's evaluation model: iid per-bit stuck-at faults.
 *
 * samplePopulation() is a one-line shim onto the legacy FaultMap
 * constructor, so the default scenario reproduces every historical
 * result bit-identically (tests/scenario_spec_test.cc pins this).
 */
class IidStuckAt final : public FaultModel
{
  public:
    explicit IidStuckAt(const ScenarioSpec &spec) : FaultModel(spec) {}

  protected:
    std::unique_ptr<FaultMap>
    samplePopulation(std::size_t num_lines,
                     std::size_t line_bits) const override;
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

  protected:
    std::unique_ptr<FaultMap>
    samplePopulation(std::size_t num_lines,
                     std::size_t line_bits) const override;
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

  protected:
    std::unique_ptr<FaultMap>
    samplePopulation(std::size_t num_lines,
                     std::size_t line_bits) const override;
};

/**
 * Time-varying voltage regime over any base population. The base
 * model (spec().droop.base) supplies the cells; voltageSchedule()
 * replays spec().droop.schedule, which may raise as well as lower V,
 * so built maps are declared non-monotone.
 */
class DroopSchedule final : public FaultModel
{
  public:
    explicit DroopSchedule(const ScenarioSpec &spec);

    bool monotoneVoltage() const override { return false; }
    std::vector<double> voltageSchedule() const override;

  protected:
    std::unique_ptr<FaultMap>
    samplePopulation(std::size_t num_lines,
                     std::size_t line_bits) const override;

  private:
    std::unique_ptr<FaultModel> base;
};

} // namespace killi

#endif // KILLI_FAULT_FAULT_MODEL_HH

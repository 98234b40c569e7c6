/**
 * @file
 * Per-bit persistent low-voltage fault maps.
 *
 * The DAC'17 measurements the paper builds on established that LV
 * failures are persistent and *monotone*: a cell failing at voltage
 * V fails at every lower voltage (and every higher frequency). The
 * map reproduces this by construction: each potentially faulty cell
 * draws a uniform threshold u and is faulty at voltage v iff
 * u < pCell(v). Because pCell is monotone decreasing in v, the
 * faulty set at a higher voltage is always a subset of the faulty
 * set at a lower voltage.
 *
 * Faults are stuck-at: the cell reads back a fixed value regardless
 * of what was written. A stuck-at fault whose stuck value equals the
 * stored bit is *masked* — invisible until data of the opposite
 * polarity is written — which is exactly the masked-fault behaviour
 * Killi's DFH oscillation (paper §4.3) and the §5.6.2 inverted-write
 * mitigation are designed around.
 */

#ifndef KILLI_FAULT_FAULT_MAP_HH
#define KILLI_FAULT_FAULT_MAP_HH

#include <cstdint>
#include <memory>
#include <vector>

#include "common/bitvec.hh"
#include "common/rng.hh"
#include "fault/voltage_model.hh"

namespace killi
{

/** A single persistently faulty cell within a line. */
struct FaultCell
{
    std::uint16_t bit;    //!< position within the line
    float threshold;      //!< active at voltage v iff pCell(v) > threshold
    bool stuckValue;      //!< value the cell reads back as
    FaultKind kind;       //!< failing mechanism (for statistics)
};

/** A sampled die: the potential-fault cells of every line, each line
 *  sorted strictly ascending by bit. */
using FaultPopulation = std::vector<std::vector<FaultCell>>;

/** How the constructor samples the potential-fault population. */
enum class FaultSampling
{
    /** Geometric skip sampling: one draw per *fault*, not per bit. */
    Skip,
    /** One uniform draw per bit — the original reference
     *  implementation, kept for distribution-equivalence tests and
     *  the hotpath bench (see common/hotpath.hh). */
    PerBit,
};

/**
 * Fault map for an array of lines (e.g.\ the 32768 64-byte lines of
 * the 2MB L2). Construction samples the potential-fault population
 * once, at the lowest supported voltage; setVoltage() then activates
 * the subset for the current operating point.
 *
 * The population is immutable and shared: maps adopted from one
 * sampled die (the sweep points of a campaign, the jobs of a kserved
 * warm store) all hold the same FaultPopulation and own only their
 * active sets. plantFault() clones the population before changing
 * it (copy-on-write), so a plant never reaches a sibling map.
 */
class FaultMap
{
  public:
    /**
     * Direct iid construction.
     *
     * @deprecated New code should build maps through
     * FaultModel::fromScenario() (fault_model.hh), which covers the
     * correlated scenario classes too; these constructors remain as
     * the iid model's sampling shim (IidStuckAt delegates here, and
     * tests/scenario_spec_test.cc pins the bit-identity).
     *
     * @param num_lines number of physical lines in the array
     * @param line_bits LV-vulnerable bits per line (data + any
     *                  co-located metadata such as stored parity or
     *                  per-line checkbits)
     * @param model voltage model to draw probabilities from
     * @param seed RNG seed (fault maps are die-specific)
     * @param freq_ghz operating frequency for the whole run
     * @param sampling population sampler; defaults to geometric
     *                 skip sampling, which costs O(faults) draws
     *                 per line instead of O(line_bits). When unset,
     *                 construction follows hotpathReferenceMode().
     */
    FaultMap(std::size_t num_lines, std::size_t line_bits,
             const VoltageModel &model, std::uint64_t seed,
             double freq_ghz = 1.0);
    FaultMap(std::size_t num_lines, std::size_t line_bits,
             const VoltageModel &model, std::uint64_t seed,
             double freq_ghz, FaultSampling sampling);

    /**
     * Adopt an externally sampled potential-fault population (the
     * correlated FaultModel classes build these). Each line's cells
     * must be sorted strictly ascending by bit with positions inside
     * [0, line_bits); violations are fatal(). The map starts at
     * 1.0 x VDD like the sampling constructors.
     */
    FaultMap(FaultPopulation population, std::size_t line_bits,
             const VoltageModel &model, double freq_ghz = 1.0);

    /**
     * Share @p population without copying it and activate it
     * directly at @p vNorm. The sorted/in-range check above runs in
     * the same pass over the cells as the activation; violations
     * (and a null population) are fatal().
     */
    FaultMap(std::shared_ptr<const FaultPopulation> population,
             std::size_t line_bits, const VoltageModel &model,
             double freq_ghz, double vNorm);

    std::size_t numLines() const { return active.size(); }
    std::size_t lineBits() const { return bitsPerLine; }
    double voltage() const { return currentV; }
    double frequency() const { return freqGHz; }

    /**
     * Activate the fault population for operating voltage @p vNorm.
     * Mirrors a DVFS transition; callers (e.g.\ Killi) must reset
     * their learned state, as the paper requires. If the owning
     * model declared monotonicity, raising the voltage is fatal()
     * (see declareMonotoneVoltage()).
     */
    void setVoltage(double vNorm);

    /**
     * Declare whether this map lives in a monotone voltage regime.
     * Under the DAC'17 superset invariant voltage only ever steps
     * down after construction, and a raise is a caller bug —
     * setVoltage() rejects it once monotonicity is declared. Models
     * with a droop schedule (FaultModel::monotoneVoltage() == false)
     * leave it undeclared so raising V is legal. Direct-constructed
     * maps default to undeclared for compatibility.
     */
    void declareMonotoneVoltage(bool monotone)
    {
        monotoneDeclared = monotone;
    }

    /**
     * Opt into incremental voltage stepping: subsequent monotone
     * setVoltage() lowerings derive the active sets as a delta from
     * the previous operating point — only the cells whose threshold
     * crosses between pCell(V1) and pCell(V2) are touched — instead
     * of re-filtering every line, turning a multi-point sweep from
     * O(points x lines) into O(lines + faults-delta). The stepped
     * active sets are bit-identical to cold filtering at every point
     * (asserted under KILLI_CHECK_INVARIANTS, pinned in fault_test).
     *
     * Returns true when enabled. Maps without a declared monotone
     * regime (droop schedules may raise V) refuse and return false;
     * the caller must keep cold-activating per point.
     */
    bool enableIncrementalVoltage();

    /** Is incremental voltage stepping enabled? */
    bool incrementalVoltage() const { return incremental; }

    /** The potential-fault population (per line, sorted by bit). */
    const FaultPopulation &population() const { return *pop; }

    /** The population as a shared handle, so embedders can build
     *  more maps of this die without resampling or copying — see
     *  FaultModel::buildMapFrom() and the kserved warm store. */
    std::shared_ptr<const FaultPopulation> sharedPopulation() const
    {
        return pop;
    }

    /** Active faulty cells of @p line at the current voltage. */
    const std::vector<FaultCell> &lineFaults(std::size_t line) const
    {
        return active[line];
    }

    /** Number of active faults of @p line within the first
     *  @p prefix_bits bit positions (schemes with narrower physical
     *  lines share one map; see DESIGN.md). */
    unsigned countFaults(std::size_t line, std::size_t prefix_bits) const;

    /**
     * Read a stored value through the fault overlay: stuck cells
     * (within @p value's width) are forced to their stuck value.
     * Returns the positions that actually flipped relative to
     * @p value — i.e.\ the *visible* (unmasked) error pattern.
     */
    std::vector<std::size_t>
    visibleErrors(std::size_t line, const BitVec &value) const;

    /**
     * Two-part variant: the physical line is the concatenation of
     * @p data (positions [0, data.size())) and @p meta (positions
     * [data.size(), data.size() + meta.size())) — e.g.\ a payload
     * plus its co-located parity or checkbits. Avoids materializing
     * the combined vector on the hot path.
     */
    std::vector<std::size_t>
    visibleErrors(std::size_t line, const BitVec &data,
                  const BitVec &meta) const;

    /**
     * visibleErrors() into a caller-owned vector (cleared first), so
     * per-access probes can reuse one buffer instead of allocating.
     * Results are identical to the returning overloads.
     */
    void visibleErrorsInto(std::size_t line, const BitVec &value,
                           std::vector<std::size_t> &out) const;
    void visibleErrorsInto(std::size_t line, const BitVec &data,
                           const BitVec &meta,
                           std::vector<std::size_t> &out) const;

    /** Apply the overlay in place; returns number of flipped bits. */
    unsigned applyFaults(std::size_t line, BitVec &value) const;

    /**
     * Plant a persistent fault active at every voltage (tests and
     * demos that need a deterministic fault layout). Duplicate
     * positions are rejected. The plant goes into this map's own
     * copy of the population (copy-on-write, cloned at most once
     * per map and not at all while nothing else holds it): maps
     * sharing the old one never see it.
     */
    void plantFault(std::size_t line, std::uint16_t bit,
                    bool stuck_value,
                    FaultKind kind = FaultKind::Writeability);

    /**
     * Inject a *transient* (soft-error) flip: the cell's stored
     * value reads back inverted until the line is rewritten.
     * Unlike the persistent population, transients are
     * polarity-independent and cleared by clearTransients().
     */
    void injectTransient(std::size_t line, std::uint16_t bit);

    /** The line was rewritten: all transient upsets are overwritten. */
    void clearTransients(std::size_t line);

    /** Currently live transient flips of @p line. */
    const std::vector<std::uint16_t> &
    transients(std::size_t line) const
    {
        return transientFlips[line];
    }

    /** Histogram of active fault counts per line (0, 1, 2+) over the
     *  first @p prefix_bits positions: the Fig. 2 quantities. */
    struct LineHistogram
    {
        std::size_t zero = 0;
        std::size_t one = 0;
        std::size_t twoPlus = 0;
    };
    LineHistogram histogram(std::size_t prefix_bits) const;

  private:
    /** Is @p bit held by an active persistent fault? Binary search
     *  over the sorted active set. */
    bool isStuck(std::size_t line, std::uint16_t bit) const;

    /** One potential-fault cell in threshold order — the incremental
     *  stepping index. `cell` indexes into (*pop)[line], which is
     *  stable except across plantFault() (which invalidates the
     *  index for a lazy rebuild). */
    struct ThresholdRef
    {
        float threshold;
        std::uint32_t line;
        std::uint32_t cell;
    };

    /** Validate and activate a just-set pop at @p vNorm in one
     *  pass (the population constructors' shared tail). */
    void adopt(double vNorm);
    /** Re-filter every line's active set against @p p (the
     *  original, always-correct activation path). With @p validate,
     *  fatal() on a cell breaking the population's sort/range
     *  invariant (adoption checks it in this same pass). */
    void coldActivate(double p, bool validate = false);
    /** Rebuild thresholdIndex from pop (sorted by threshold with a
     *  deterministic (line, cell) tie-break; counting sort on the
     *  float bit pattern, near-linear in population size). */
    void rebuildIndex();
    /** Position cursor at the first index entry with threshold >= p,
     *  i.e.\ the first cell NOT active at the current point. */
    void resetCursor(double p);
    /** Advance cursor over every cell crossing at @p p, merging each
     *  touched line's crossings into its active set in one backward
     *  by-bit merge (the slice is regrouped by line first). */
    void activateDelta(double p);
#ifdef KILLI_CHECK_INVARIANTS
    /** fatal() unless the delta-derived active sets are bit-identical
     *  to a cold re-filter at @p p. */
    void checkDeltaMatchesCold(double p) const;
#endif

    std::size_t bitsPerLine;
    double freqGHz;
    double currentV = 1.0;
    bool monotoneDeclared = false;
    /** setVoltage() has run at least once (the constructors apply
     *  1.0 x VDD with currentV pre-initialized to 1.0, so equality
     *  against currentV alone cannot detect the first activation). */
    bool voltageApplied = false;
    bool incremental = false;
    /** thresholdIndex/cursor agree with pop (plantFault clears). */
    bool indexValid = false;
    std::size_t cursor = 0;
    std::vector<ThresholdRef> thresholdIndex;
    /** Reused per-step staging buffers for activateDelta()'s
     *  regroup-by-line pass (avoid allocations per sweep point). */
    std::vector<ThresholdRef> deltaScratch;
    std::vector<std::uint32_t> deltaOffsets;
    const VoltageModel *vModel;

    /** Potential faults per line, sorted ascending by bit (the
     *  constructor emits them in order, plantFault inserts in
     *  order, and setVoltage's filter preserves order). Other maps
     *  may share it. */
    std::shared_ptr<const FaultPopulation> pop;
    /** The same population, writable, when this map made it (the
     *  sampling and by-value constructors, or a plantFault clone);
     *  null for an adopted one. plantFault writes through it only
     *  while this map holds the sole handles. */
    std::shared_ptr<FaultPopulation> ownPop;
    /** Active subset per line at currentV (same sort invariant). */
    std::vector<std::vector<FaultCell>> active;
    /** Live soft-error flips per line (cleared on rewrite). */
    std::vector<std::vector<std::uint16_t>> transientFlips;
};

} // namespace killi

#endif // KILLI_FAULT_FAULT_MAP_HH

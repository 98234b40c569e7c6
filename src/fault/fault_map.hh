/**
 * @file
 * The active-fault view of a sampled die at one operating voltage.
 *
 * The DAC'17 measurements the paper builds on established that LV
 * failures are persistent and *monotone*: a cell failing at voltage
 * V fails at every lower voltage (and every higher frequency). A
 * die is therefore sampled once, as a population of potentially
 * faulty cells (FaultModel::sample(), fault_model.hh), each with a
 * uniform threshold u; a FaultMap adopts that population and holds
 * the cells active at its voltage v, those with u < pCell(v).
 * Because pCell is monotone decreasing in v, the active set at a
 * higher voltage is always a subset of the one at a lower voltage.
 *
 * A die need not hold every cell that could fail anywhere in the
 * model's range. A caller that knows its operating points samples it
 * under a *cover*: the largest pCell over those points. The sampler
 * then keeps only cells with threshold < cover, the only ones any of
 * those points can activate. The map remembers its cover and refuses
 * (fatal()) to activate a point past it, so a covered die can never
 * under-report faults.
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
#include <limits>
#include <memory>
#include <span>
#include <unordered_map>
#include <vector>

#include "common/bitvec.hh"
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
static_assert(sizeof(FaultCell) == 12, "FaultCell packs into 12 bytes");

/** The cover of a die sampled without one: it holds every cell that
 *  could fail in the model's range, and any voltage may be activated. */
inline constexpr double kNoCover =
    std::numeric_limits<double>::infinity();

/** A sampled die: the potential-fault cells of every line, each line
 *  sorted strictly ascending by bit. */
using FaultPopulation = std::vector<std::vector<FaultCell>>;

/**
 * Fault map for an array of lines (e.g.\ the 32768 64-byte lines of
 * the 2MB L2): the active subset of a shared, immutable potential-
 * fault population at the current operating point. setVoltage()
 * re-derives the subset for a new point.
 *
 * Readers (the protection schemes) take the map as const, so one
 * map serves any number of concurrent runs: a sweep campaign
 * activates its die once for all of its points. Maps adopted from
 * one sampled die (the jobs of a kserved warm store) all hold the
 * same FaultPopulation and own only their active sets. plantFault()
 * clones the population before changing it (copy-on-write), so a
 * plant never reaches a sibling map.
 */
class FaultMap
{
  public:
    /**
     * Adopt @p population without copying it and activate it at
     * @p vNorm. Each line's cells must be sorted strictly ascending
     * by bit with positions inside [0, line_bits); the check runs in
     * the same pass over the cells as the activation, and violations
     * (and a null population) are fatal(). FaultModel::buildMap()
     * and friends are the usual way in.
     *
     * @param line_bits LV-vulnerable bits per line (data + any
     *                  co-located metadata such as stored parity or
     *                  per-line checkbits)
     * @param freq_ghz operating frequency for the whole run
     * @param monotone the DAC'17 superset regime: voltage only ever
     *                 steps down after construction, so setVoltage()
     *                 rejects a raise. Droop schedules pass false.
     * @param cover the cover @p population was sampled under (a
     *              population holding at least every cell with
     *              threshold < cover). Activating a voltage whose
     *              pCell exceeds it, here or in setVoltage(), is
     *              fatal().
     *
     * While the map holds the only handle to the population,
     * plantFault() edits it in place; a population handed over that
     * way must not be a const object (FaultModel never makes one).
     */
    FaultMap(std::shared_ptr<const FaultPopulation> population,
             std::size_t line_bits, double freq_ghz, double vNorm,
             bool monotone, double cover = kNoCover);

    std::size_t numLines() const { return offsets.size() - 1; }
    std::size_t lineBits() const { return bitsPerLine; }
    double voltage() const { return currentV; }
    double frequency() const { return freqGHz; }

    /**
     * Activate the fault population for operating voltage @p vNorm.
     * Mirrors a DVFS transition; callers (e.g.\ Killi) must reset
     * their learned state, as the paper requires. On a monotone
     * map raising the voltage is a caller bug and fatal(), as is a
     * voltage whose pCell exceeds the map's cover; re-setting the
     * current voltage is a no-op.
     */
    void setVoltage(double vNorm);

    /** The potential-fault population (per line, sorted by bit):
     *  under a cover, only the cells with threshold < cover (and any
     *  planted ones), not every cell that could fail in the model's
     *  range. */
    const FaultPopulation &population() const { return *pop; }

    /** Active faulty cells of @p line at the current voltage, sorted
     *  by bit. Valid until the map's next voltage step or plant. */
    std::span<const FaultCell> lineFaults(std::size_t line) const
    {
        return {cells.data() + offsets[line],
                cells.data() + offsets[line + 1]};
    }

    /** Does @p line read back exactly what was written: no active
     *  fault and no live transient? The probes' fast path. */
    bool clean(std::size_t line) const
    {
        return offsets[line] == offsets[line + 1] &&
               (transientFlips.empty() || !transientFlips.contains(line));
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

    /**
     * Plant a persistent fault active at every voltage (tests and
     * demos that need a deterministic fault layout). Duplicate
     * positions are rejected. The plant goes into this map's own
     * copy of the population (copy-on-write: cloned at most once
     * per map, and not at all while this map holds the only
     * handle): maps sharing the old one never see it.
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
    /** pCell at @p vNorm, fatal() when it exceeds the cover. */
    double coveredP(double vNorm) const;

    /** Is @p bit held by an active persistent fault? Binary search
     *  over the sorted active set. */
    bool isStuck(std::size_t line, std::uint16_t bit) const;

    /** Live transient flips of @p line, in injection order. */
    std::span<const std::uint16_t> transients(std::size_t line) const;

    /** Re-filter every line's active set against @p p (the map's
     *  only activation path) in one pass that appends each line's
     *  active cells and records its offset. With @p validate,
     *  fatal() on a cell breaking the population's sort/range
     *  invariant (adoption checks it in this same pass). */
    void coldActivate(double p, bool validate = false);

    std::size_t bitsPerLine;
    double freqGHz;
    double currentV;
    bool monotone;
    double coverP;
    VoltageModel vModel;

    /** Potential faults per line, sorted ascending by bit (adoption
     *  checks it, plantFault inserts in order, and setVoltage's
     *  filter preserves order). Other maps may share it. */
    std::shared_ptr<const FaultPopulation> pop;
    /** The active subset at currentV in CSR form: line l's cells
     *  are cells[offsets[l], offsets[l + 1]), with the population's
     *  sort invariant. */
    std::vector<std::uint32_t> offsets;
    std::vector<FaultCell> cells;
    /** Live soft-error flips, in injection order, of the lines that
     *  have any (cleared on rewrite; empty outside soft-error runs). */
    std::unordered_map<std::uint32_t, std::vector<std::uint16_t>>
        transientFlips;
};

} // namespace killi

#endif // KILLI_FAULT_FAULT_MAP_HH

/**
 * @file
 * Analytical SRAM cell-failure model standing in for the 14nm FinFET
 * silicon measurements of Ganapathy et al. (DAC'17) that the paper
 * builds on (Fig. 1 / Fig. 2).
 *
 * The silicon data is confidential (the paper publishes only
 * normalized voltages), so the model is calibrated to every
 * quantitative anchor the paper states; see DESIGN.md and the anchor
 * table in voltage_model.cc. Failure probability is log-linear
 * between anchors, monotonically decreasing in voltage and
 * increasing in frequency, with separate read-disturb and
 * writeability components.
 */

#ifndef KILLI_FAULT_VOLTAGE_MODEL_HH
#define KILLI_FAULT_VOLTAGE_MODEL_HH

#include <cstddef>
#include <cstdint>
#include <vector>

namespace killi
{

/** Failure mechanisms measured by the DAC'17 test chips. One byte,
 *  so a FaultCell packs into 12. */
enum class FaultKind : std::uint8_t
{
    ReadDisturb, //!< cell flips when read with wordline high
    Writeability //!< cell fails to change state during a write
};

/**
 * Voltage/frequency to cell-failure-probability model.
 *
 * Voltages are normalized to nominal VDD (1.0); frequency in GHz.
 * The paper's operating point is 1 GHz, where Killi targets
 * 0.625 x VDD.
 */
class VoltageModel
{
  public:
    VoltageModel();

    /** Combined cell failure probability at (v, f). */
    double pCell(double vNorm, double freqGHz = 1.0) const;

    /** Read-disturb component. */
    double pRead(double vNorm, double freqGHz = 1.0) const;

    /** Writeability component. */
    double pWrite(double vNorm, double freqGHz = 1.0) const;

    /**
     * Probability that a line of @p line_bits cells has exactly
     * @p faults failures at (v, f); binomial, evaluated stably in
     * log space.
     */
    double pLineFaults(std::size_t line_bits, unsigned faults,
                       double vNorm, double freqGHz = 1.0) const;

    /** P(line has >= @p faults failures). */
    double pLineAtLeast(std::size_t line_bits, unsigned faults,
                        double vNorm, double freqGHz = 1.0) const;

    /** Lowest voltage the model supports (fault maps clamp here). */
    static constexpr double minVoltage() { return 0.45; }

  private:
    /** log10 p interpolated over the calibrated anchor table. */
    double log10P(double vEff) const;

    /** Frequency-dependent effective voltage shift. */
    static double effectiveV(double vNorm, double freqGHz);

    struct Anchor
    {
        double v;
        double log10p;
    };
    std::vector<Anchor> anchors;
};

} // namespace killi

#endif // KILLI_FAULT_VOLTAGE_MODEL_HH

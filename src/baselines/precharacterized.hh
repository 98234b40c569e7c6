/**
 * @file
 * MBIST-pre-characterized baseline protection schemes (paper §5.1):
 *
 *  - SECDED per line (and FLAIR, which behaves identically in the
 *    simulations because the paper pre-trains FLAIR's fault map and
 *    skips its online MBIST phases): disable lines with >= 2 faults;
 *  - DECTED per line: disable lines with >= 3 faults;
 *  - MS-ECC (OLSC, up to 11 corrections per 64B line, dedicated
 *    checkbit storage): disable lines with >= 12 faults.
 *
 * Pre-characterization is modeled as perfect knowledge of the
 * persistent fault population — including currently *masked* faults,
 * which MBIST's pattern tests expose but Killi's runtime
 * classification deliberately tolerates (paper conclusion: Killi
 * "takes advantage of LV fault masking to enable a higher number of
 * cache lines than full knowledge of faults would allow").
 *
 * SECDED/DECTED lines carry their checkbits in the under-volted
 * array (positions 512.. of the fault map), so checkbit cells fail
 * too; decode outcomes come from the real codec probes. MS-ECC is
 * modeled behaviourally at line level (see DESIGN.md).
 */

#ifndef KILLI_BASELINES_PRECHARACTERIZED_HH
#define KILLI_BASELINES_PRECHARACTERIZED_HH

#include <memory>
#include <vector>

#include "cache/protection.hh"
#include "ecc/codec_factory.hh"
#include "fault/fault_map.hh"

namespace killi
{

struct PrecharParams
{
    std::string displayName;
    CodeKind kind = CodeKind::Secded;
    /** Lines with at least this many persistent faults (over the
     *  full physical codeword) are disabled by the MBIST pass. */
    unsigned disableThreshold = 2;
    /** Per-line LV-vulnerable checkbit cells (0 = behavioural). */
    std::size_t checkBitsInArray = 0;
    bool behavioral = false;
    Cycle codecLatency = 1;
    Cycle correctionLatency = 1;
};

class PrecharacterizedScheme : public ProtectionScheme
{
  public:
    PrecharacterizedScheme(const FaultMap &fault_map,
                           const PrecharParams &params);

    std::string name() const override { return p.displayName; }
    void attach(L2Backdoor &backdoor,
                const CacheGeometry &geom) override;
    void reset() override;

    bool canAllocate(std::size_t lineId) const override;
    Cycle onFill(std::size_t lineId, const BitVec &data) override;
    AccessResult onReadHit(std::size_t lineId,
                           const BitVec &data) override;
    WritebackOutcome onWriteback(std::size_t lineId,
                                 const BitVec &data) override;
    std::size_t usableLines() const override;
    void addTimeseriesSources(StatTimeseries &ts) override;

    /** Lines the MBIST pass disabled (reporting). */
    std::size_t disabledLines() const;

  private:
    /** Physical LV bits per line (payload + in-array checkbits). */
    std::size_t physBits() const;

    /** Visible errors of a line with an active fault or transient
     *  (a codec scheme), into errsScratch. The checkbit cells hold
     *  code->encode(@p data): a fill or store writes them with the
     *  payload, so they are derived here rather than stored. */
    const std::vector<std::size_t> &visibleErrors(std::size_t lineId,
                                                  const BitVec &data);

    const FaultMap &faults;
    PrecharParams p;
    std::unique_ptr<BlockCode> code; //!< null when behavioural

    std::vector<bool> enabled;
    /** Slow-path scratch, reused across probes. */
    BitVec checkScratch;
    std::vector<std::size_t> errsScratch;
};

/** SECDED per line + disable bit (the paper's area yardstick). */
std::unique_ptr<PrecharacterizedScheme>
makeSecdedLine(const FaultMap &faults);

/** FLAIR with pre-trained fault map (paper §5.1 methodology). */
std::unique_ptr<PrecharacterizedScheme> makeFlair(const FaultMap &faults);

/** DECTED per line, disabling lines with 3+ faults. */
std::unique_ptr<PrecharacterizedScheme>
makeDectedLine(const FaultMap &faults);

/** MS-ECC: OLSC-strength correction, 11 errors per 64B line. */
std::unique_ptr<PrecharacterizedScheme> makeMsEcc(const FaultMap &faults);

} // namespace killi

#endif // KILLI_BASELINES_PRECHARACTERIZED_HH

/**
 * @file
 * Randomized test scenarios for the kcheck property harness.
 *
 * A Scenario is a fully deterministic description of one differential
 * run: a KilliParams knob combination, an explicit list of planted
 * stuck-at faults, and an access trace over a small L2-shaped line
 * array (fills, reads, writes, evictions, MRU touches, scrub passes,
 * and mid-run transient flips). Scenarios round-trip through the
 * project's JSON layer so a failing case — after shrinking — becomes
 * a replayable seed file (`kcheck replay=seed.json`) and a corpus
 * entry under tests/corpus/.
 *
 * Generation draws everything from one explicitly seeded Rng, so a
 * scenario is identified by its 64-bit seed alone and campaigns are
 * bit-identical at any worker-thread count.
 */

#ifndef KILLI_CHECK_SCENARIO_HH
#define KILLI_CHECK_SCENARIO_HH

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "cache/geometry.hh"
#include "common/json.hh"
#include "fault/scenario_spec.hh"
#include "killi/killi.hh"

namespace killi::check
{

/** One step of a scenario's access trace. */
enum class OpKind : std::uint8_t
{
    Fill,      //!< install golden data (no-op if resident/unallocatable)
    Read,      //!< protected read hit (no-op if not resident)
    Write,     //!< store: bumps the golden version, updates the line
    Evict,     //!< capacity eviction (train, write back dirty, drop)
    Touch,     //!< MRU promotion (coordinated replacement path)
    Scrub,     //!< maintenance pass reclaiming disabled lines
    Transient, //!< soft-error flip at (line, bit) until next rewrite
    /** Write a dirty resident line back without dropping it (a host
     *  cache flush). No-op unless resident and dirty. Not drawn by
     *  generate() — adding it to the weights would change every
     *  existing seed's trace — but available to hand-written corpus
     *  entries exercising the §5.6.1 writeback bookkeeping. */
    Flush
};

const char *opKindName(OpKind kind);

struct TraceOp
{
    OpKind kind = OpKind::Read;
    std::uint16_t line = 0;
    /** Flip position for Transient ops; unused otherwise. */
    std::uint16_t bit = 0;
};

/** A deterministically planted stuck-at cell (active at any voltage). */
struct PlantedFault
{
    std::uint16_t line = 0;
    std::uint16_t bit = 0;
    bool stuck = false;
};

struct Scenario
{
    /** Generator seed (0 for hand-written corpus entries). */
    std::uint64_t seed = 0;
    /** Normalized VDD used only to pick the generated fault density;
     *  planted faults themselves are voltage-independent. */
    double voltage = 0.625;
    /** Lines in the simulated array (16 ways per set, 64B lines). */
    std::size_t numLines = 256;
    KilliParams params;
    std::vector<PlantedFault> faults;
    std::vector<TraceOp> trace;
    /**
     * Optional background fault model (killi-scenario-v1 spec, see
     * SCENARIOS.md): when present, the checker builds the fault map
     * through FaultModel::fromScenario() at the spec's operating
     * point and plants `faults` on top, so correlated populations
     * (clustered rows/columns, bursts, droop regimes) flow through
     * the differential properties too. Absent reproduces the
     * planted-faults-only behaviour of every pre-existing seed
     * bit-identically.
     */
    std::optional<ScenarioSpec> faultModel;

    /** Host-cache shape implied by numLines. */
    CacheGeometry geometry() const;

    /** Draw a complete random scenario from @p seed. */
    static Scenario generate(std::uint64_t seed);

    Json toJson() const;
    /** Strict load; throws killi::Error on malformed documents. */
    static Scenario fromJson(const Json &doc);

    /** One-line description for reports and failure listings. */
    std::string summary() const;
};

/** Per-case seed derivation: mixes the campaign master seed with the
 *  case index so neighbouring cases share no RNG stream. */
std::uint64_t caseSeed(std::uint64_t masterSeed, std::uint64_t index);

} // namespace killi::check

#endif // KILLI_CHECK_SCENARIO_HH

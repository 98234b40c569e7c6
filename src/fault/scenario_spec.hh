/**
 * @file
 * Versioned, replayable fault-scenario documents.
 *
 * A ScenarioSpec is the single configuration payload for fault-model
 * construction everywhere in the project: bench binaries accept one
 * via `scenario=<file|inline-json>`, kcheck generates and shrinks
 * them inside its counterexample seeds, and kserved accepts one as a
 * job field. The JSON format ("killi-scenario-v1", see SCENARIOS.md)
 * round-trips losslessly — toJson() emits a canonical form whose
 * serialization is byte-identical after parse → serialize → parse —
 * and carries its own RNG seed so a scenario file alone reproduces a
 * fault population bit-for-bit.
 *
 * The spec is pure data; FaultModel::fromScenario() (fault_model.hh)
 * turns it into a sampler.
 */

#ifndef KILLI_FAULT_SCENARIO_SPEC_HH
#define KILLI_FAULT_SCENARIO_SPEC_HH

#include <cstdint>
#include <string>
#include <vector>

#include "common/json.hh"

namespace killi
{

/** Knobs of the "clustered" (MoRS-style row/column/cluster) model. */
struct ClusterParams
{
    double rowFrac = 0.02;    //!< fraction of weak wordlines (rows)
    double rowBoost = 32.0;   //!< pCell multiplier on weak rows
    double colFrac = 0.01;    //!< fraction of weak bitline columns
    double colBoost = 16.0;   //!< pCell multiplier on weak columns
    double clusterRate = 0.002; //!< expected defect clusters per line
    unsigned clusterLines = 4;  //!< cluster rectangle height (lines)
    unsigned clusterBits = 16;  //!< cluster rectangle width (bits)
    double clusterP = 0.6;    //!< cell inclusion prob inside a cluster
    double clusterVmax = 0.7; //!< cluster cells fail below this voltage
};

/** Knobs of the "burst" (multi-bit byte-aligned burst) model. */
struct BurstParams
{
    double burstRate = 0.05; //!< expected bursts per line
    unsigned lenMinBytes = 1; //!< minimum burst span (bytes)
    unsigned lenMaxBytes = 4; //!< maximum burst span (bytes)
    double pWithin = 0.75;   //!< per-bit inclusion inside the span
    double burstVmax = 0.7;  //!< burst cells fail below this voltage
};

/** Knobs of the "droop" (time-varying voltage regime) model. */
struct DroopParams
{
    /** Population model the schedule runs over: iid|clustered|burst. */
    std::string base = "iid";
    /** Operating points visited in order; may rise as well as fall
     *  (a droop map is declared non-monotone). Empty means
     *  {ScenarioSpec::voltage}. */
    std::vector<double> schedule;
};

/**
 * One fault scenario: a model class, its knobs, the die seed, and
 * the operating point. Defaults reproduce the project's historical
 * behaviour (iid stuck-at sampling, seed 42, 0.625 x VDD at 1 GHz)
 * bit-identically.
 */
struct ScenarioSpec
{
    std::string model = "iid"; //!< iid|clustered|burst|droop
    std::uint64_t seed = 42;   //!< die seed for population sampling
    double voltage = 0.625;    //!< normalized operating voltage
    double freqGHz = 1.0;      //!< operating frequency

    ClusterParams cluster; //!< used when model involves "clustered"
    BurstParams burst;     //!< used when model involves "burst"
    DroopParams droop;     //!< used when model == "droop"

    /**
     * Canonical serialization: format tag, the scalar fields, and
     * every knob of the active model family (others omitted). The
     * seed is emitted as a decimal string so 64-bit values survive
     * the JSON number representation. Serializing a parsed document
     * reproduces the canonical bytes exactly.
     */
    Json toJson() const;

    /**
     * Strict parse: unknown keys, malformed scalars, out-of-range
     * knobs, and unsupported format versions throw killi::Error
     * ("scenario: ..."), which the serving daemon answers with an
     * error frame. Absent keys take their defaults, so
     * `{"model": "burst"}` is a complete scenario.
     */
    static ScenarioSpec fromJson(const Json &doc);

    /**
     * Resolve a `scenario=` option value: a token starting with '{'
     * parses as inline JSON, anything else is read as a file path.
     * Errors throw as fromJson()'s do.
     */
    static ScenarioSpec fromString(const std::string &fileOrInline);

    /** Short human-readable label, e.g. "clustered v=0.625 seed=42". */
    std::string summary() const;
};

} // namespace killi

#endif // KILLI_FAULT_SCENARIO_SPEC_HH

/**
 * @file
 * Test fixture helper: an iid die built the way the simulator builds
 * one, through FaultModel.
 */

#ifndef KILLI_TESTS_IID_DIE_HH
#define KILLI_TESTS_IID_DIE_HH

#include <cstdint>
#include <memory>

#include "fault/fault_model.hh"

namespace killi
{

/** The default iid scenario's die for @p seed: @p lines x 720 cells,
 *  activated at @p voltage (a monotone map). */
inline std::unique_ptr<FaultMap>
iidDie(std::size_t lines, std::uint64_t seed, double voltage)
{
    ScenarioSpec spec;
    spec.seed = seed;
    return FaultModel::fromScenario(spec)->buildMapAt(lines, 720,
                                                      voltage);
}

} // namespace killi

#endif // KILLI_TESTS_IID_DIE_HH

/**
 * @file
 * Bench/test-only switch between the optimized hot paths and the
 * reference implementations they replaced.
 *
 * The codecs (bit-sliced encode/decode), and the iid fault sampler
 * (geometric skip sampling) keep their original implementations as
 * `*Reference` entry points so differential tests can pin the two
 * paths against each other, and so `bench/hotpath` can measure the
 * end-to-end speedup honestly by running a whole sweep point down
 * the old path. Objects sample this flag at *construction*, so flip
 * it before building the system under measurement. Production code
 * never sets it; the default is always the optimized path.
 */

#ifndef KILLI_COMMON_HOTPATH_HH
#define KILLI_COMMON_HOTPATH_HH

#include <atomic>
#include <cstdint>

namespace killi
{

/** True when new objects should route through the reference paths. */
bool hotpathReferenceMode();

/** Flip the construction-time default (bench/tests only). */
void setHotpathReferenceMode(bool on);

namespace detail
{
extern std::atomic<std::uint64_t> perturbDecodeCountdown;
} // namespace detail

/**
 * Arm a one-shot decode perturbation: the @p nth SECDED syndrome
 * evaluation after this call — a sliced decode() or an omniscient
 * probe(), whichever the running code path reaches — XORs bit 0
 * into its syndrome (0 disarms). Test/CI-only fault injection for
 * the record-replay bisector: two otherwise identical runs, one
 * armed, diverge at an exactly known decode, and `krr bisect` must
 * find it. The hot path pays one relaxed load and a never-taken
 * branch while disarmed.
 */
void setHotpathPerturbDecode(std::uint64_t nth);

/** True while a perturbation is armed (inline: the decode hot path
 *  gates on this before touching the slow fire path). */
inline bool
hotpathPerturbDecodePending()
{
    return detail::perturbDecodeCountdown.load(
               std::memory_order_relaxed) != 0;
}

/** Count down one armed decode; true exactly on the firing one. */
bool hotpathPerturbDecodeFire();

} // namespace killi

#endif // KILLI_COMMON_HOTPATH_HH

/**
 * @file
 * Deterministic pseudo-random number generation (xoshiro256**).
 *
 * Every stochastic component in the project (fault maps, workloads,
 * soft-error injection) draws from an explicitly seeded Rng so that
 * simulations are bit-for-bit reproducible.
 */

#ifndef KILLI_COMMON_RNG_HH
#define KILLI_COMMON_RNG_HH

#include <cmath>
#include <cstdint>

#include "common/replay_probe.hh"

namespace killi
{

/**
 * xoshiro256** generator (Blackman & Vigna), seeded via splitmix64.
 *
 * Not cryptographic; chosen for speed and excellent statistical
 * quality in Monte Carlo use.
 */
class Rng
{
  public:
    explicit Rng(std::uint64_t seed = 0x9e3779b97f4a7c15ULL)
    {
        // splitmix64 expansion of the scalar seed into 256 bits.
        std::uint64_t z = seed;
        for (auto &word : state) {
            z += 0x9e3779b97f4a7c15ULL;
            std::uint64_t x = z;
            x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
            x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
            word = x ^ (x >> 31);
        }
    }

    /**
     * Next 64 uniformly random bits.
     *
     * Single choke point for every draw this class makes (uniform,
     * below, range, bernoulli, poisson, fork all route through
     * here), which is what makes record-replay complete: an
     * installed ReplayProbe observes every random bit the run
     * consumes. Unprobed runs pay one thread-local load and a
     * never-taken branch.
     */
    std::uint64_t
    next64()
    {
        const std::uint64_t result = rotl(state[1] * 5, 7) * 9;
        const std::uint64_t t = state[1] << 17;
        state[2] ^= state[0];
        state[3] ^= state[1];
        state[1] ^= state[2];
        state[0] ^= state[3];
        state[2] ^= t;
        state[3] = rotl(state[3], 45);
        if (ReplayProbe *probe = replayProbe()) [[unlikely]]
            return observed(*probe, result);
        return result;
    }

    /** Uniform double in [0, 1). */
    double
    uniform()
    {
        return (next64() >> 11) * 0x1.0p-53;
    }

    /** Uniform integer in [0, bound), unbiased. */
    std::uint64_t
    below(std::uint64_t bound)
    {
        if (bound == 0)
            return 0;
        // Modulo reduction with rejection of the biased tail.
        const std::uint64_t limit = ~std::uint64_t{0} -
            (~std::uint64_t{0} % bound) - 1;
        std::uint64_t value;
        do {
            value = next64();
        } while (value > limit);
        return value % bound;
    }

    /** Uniform integer in [lo, hi] inclusive. */
    std::uint64_t
    range(std::uint64_t lo, std::uint64_t hi)
    {
        return lo + below(hi - lo + 1);
    }

    /** Bernoulli trial with success probability @p p. */
    bool
    bernoulli(double p)
    {
        return uniform() < p;
    }

    /**
     * Poisson variate with mean @p lambda. Knuth's method for small
     * means (all uses in this project have lambda << 30).
     */
    unsigned
    poisson(double lambda)
    {
        const double limit = std::exp(-lambda);
        double product = 1.0;
        unsigned count = 0;
        do {
            product *= uniform();
            ++count;
        } while (product > limit);
        return count - 1;
    }

    /** Fork a stream-independent child generator. */
    Rng
    fork()
    {
        return Rng(next64() ^ 0xd1b54a32d192ed03ULL);
    }

  private:
    /** Hand @p value to @p probe and return it. Out of line so that
     *  next64()'s probed branch is one call that returns the draw:
     *  with the hook called inline, the draw must live across the
     *  call, which changes register allocation in the sampling loops
     *  that inline next64(). */
    [[gnu::noinline]] static std::uint64_t
    observed(ReplayProbe &probe, std::uint64_t value)
    {
        probe.onRngDraw(value);
        return value;
    }

    static std::uint64_t
    rotl(std::uint64_t x, int k)
    {
        return (x << k) | (x >> (64 - k));
    }

    std::uint64_t state[4];
};

} // namespace killi

#endif // KILLI_COMMON_RNG_HH

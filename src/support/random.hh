/**
 * @file
 * Deterministic pseudo-random number generation.
 *
 * All stochastic behaviour in the library (workload inputs, property
 * test program generation, interrupt injection) flows through this
 * generator so that every experiment is exactly reproducible from a
 * seed. Never use std::rand or std::random_device in this codebase.
 */

#ifndef AREGION_SUPPORT_RANDOM_HH
#define AREGION_SUPPORT_RANDOM_HH

#include <cstdint>
#include <vector>

#include "support/logging.hh"

namespace aregion {

/** splitmix64 finalizer: a stateless scramble of @p x into a uniform
 *  64-bit value. It seeds Rng and draws the failpoint and contention
 *  governor streams, which recorded results depend on, so it may not
 *  change. */
constexpr uint64_t
splitmix64(uint64_t x)
{
    x += 0x9e3779b97f4a7c15ULL;
    x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
    x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
    return x ^ (x >> 31);
}

/**
 * xoshiro-style 64-bit generator (splitmix64-seeded xorshift64*).
 * Small, fast, and deterministic across platforms.
 */
class Rng
{
  public:
    explicit Rng(uint64_t seed = 0x9e3779b97f4a7c15ULL) { reseed(seed); }

    /** Re-seed the generator; identical seeds give identical streams. */
    void
    reseed(uint64_t seed)
    {
        // Scrambled so that small seeds diverge immediately.
        state = splitmix64(seed);
        if (state == 0)
            state = 0x2545f4914f6cdd1dULL;
    }

    /** Next raw 64-bit value. */
    uint64_t
    next()
    {
        state ^= state >> 12;
        state ^= state << 25;
        state ^= state >> 27;
        return state * 0x2545f4914f6cdd1dULL;
    }

    /** Uniform integer in [0, bound). bound must be > 0. */
    uint64_t
    below(uint64_t bound)
    {
        AREGION_ASSERT(bound > 0, "Rng::below(0)");
        return next() % bound;
    }

    /** Uniform integer in [lo, hi] inclusive. */
    int64_t
    range(int64_t lo, int64_t hi)
    {
        AREGION_ASSERT(lo <= hi, "Rng::range lo>hi");
        return lo + static_cast<int64_t>(
            below(static_cast<uint64_t>(hi - lo) + 1));
    }

    /** Bernoulli draw: true with the given probability. */
    bool
    chance(double probability)
    {
        if (probability <= 0.0)
            return false;
        if (probability >= 1.0)
            return true;
        return toDouble() < probability;
    }

    /** Uniform double in [0, 1). */
    double
    toDouble()
    {
        return static_cast<double>(next() >> 11) * (1.0 / 9007199254740992.0);
    }

    /** Pick an index according to non-negative weights. */
    size_t pickWeighted(const std::vector<double> &weights);

  private:
    uint64_t state;
};

} // namespace aregion

#endif // AREGION_SUPPORT_RANDOM_HH

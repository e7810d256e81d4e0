/**
 * @file
 * Deterministic pseudo-random number generation.
 *
 * Every stochastic decision in the simulator draws from an explicitly
 * seeded Rng so simulations are exactly repeatable, mirroring the
 * paper's lock-step/deterministic simulation methodology.
 */

#ifndef SMTOS_COMMON_RNG_H
#define SMTOS_COMMON_RNG_H

#include <cstdint>

namespace smtos {

/**
 * xorshift64* generator: tiny state, fast, and good enough for workload
 * synthesis. Copyable so speculative execution cursors can checkpoint
 * and restore their stochastic state.
 */
class Rng
{
  public:
    explicit Rng(std::uint64_t seed = 0x9e3779b97f4a7c15ull)
        : state(seed ? seed : 0x9e3779b97f4a7c15ull)
    {}

    /** Next raw 64-bit value. */
    std::uint64_t
    next()
    {
        std::uint64_t x = state;
        x ^= x >> 12;
        x ^= x << 25;
        x ^= x >> 27;
        state = x;
        return x * 0x2545f4914f6cdd1dull;
    }

    /** Uniform integer in [0, bound). bound must be > 0. */
    std::uint64_t
    below(std::uint64_t bound)
    {
        // Mask when bound is a power of two — identical result to the
        // modulo (x % 2^k == x & (2^k - 1)), without the hardware
        // divide. Most draws on the per-instruction path use
        // power-of-two bounds (branch chance scale, region windows).
        if ((bound & (bound - 1)) == 0)
            return next() & (bound - 1);
        return next() % bound;
    }

    /** Uniform integer in [lo, hi] inclusive. */
    std::int64_t
    range(std::int64_t lo, std::int64_t hi)
    {
        return lo + static_cast<std::int64_t>(
            below(static_cast<std::uint64_t>(hi - lo + 1)));
    }

    /** Uniform double in [0, 1). */
    double
    uniform()
    {
        return static_cast<double>(next() >> 11) * 0x1.0p-53;
    }

    /** Bernoulli draw. */
    bool chance(double p) { return uniform() < p; }

    /** Raw state accessor for checkpointing/tests. */
    std::uint64_t rawState() const { return state; }

    /** Restore a previously captured raw state (snapshot restore). */
    void
    setRawState(std::uint64_t s)
    {
        state = s ? s : 0x9e3779b97f4a7c15ull;
    }

    /** Snapshot field list (snap/snapshot.h): the raw state. */
    template <typename Ar>
    void
    snap(Ar &ar)
    {
        std::uint64_t s = state;
        ar.io(s);
        if constexpr (Ar::loading)
            setRawState(s);
    }

  private:
    std::uint64_t state;
};

/**
 * Stateless 64-bit mix hash, used where a value must be pseudo-random
 * but a pure function of its inputs (e.g. wrong-path address streams).
 */
inline std::uint64_t
mixHash(std::uint64_t a, std::uint64_t b = 0x9e3779b97f4a7c15ull)
{
    std::uint64_t x = a + 0x9e3779b97f4a7c15ull + (b << 6) + (b >> 2);
    x ^= x >> 33;
    x *= 0xff51afd7ed558ccdull;
    x ^= x >> 33;
    x *= 0xc4ceb9fe1a85ec53ull;
    x ^= x >> 33;
    return x;
}

} // namespace smtos

#endif // SMTOS_COMMON_RNG_H

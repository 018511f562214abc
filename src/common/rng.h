/**
 * @file
 * Deterministic pseudo-random number generation.
 *
 * All stochastic machinery in gpulitmus (the hardware simulator's
 * interleaving scheduler, the incantation jitter, the test harness'
 * thread randomisation) draws from this xoshiro256** generator so that
 * every experiment is reproducible from its seed.
 */

#ifndef GPULITMUS_COMMON_RNG_H
#define GPULITMUS_COMMON_RNG_H

#include <cstddef>
#include <cstdint>
#include <utility>

#include "common/log.h"

namespace gpulitmus {

/**
 * xoshiro256** PRNG (Blackman & Vigna). Deterministic, seedable, fast,
 * and with far better statistical properties than rand().
 *
 * The per-draw members (next/below/uniform/chance) are defined inline
 * here: the sampler draws tens of times per simulated iteration, and
 * inlining them into sim::RngChoice removes a call per draw. below()
 * divides at most once per draw (see reduce()) and chance() compares
 * in integers; every seeded stream is the one the textbook formulas
 * give.
 */
class Rng
{
  public:
    /** Construct from a 64-bit seed, expanded via splitmix64. */
    explicit Rng(uint64_t seed = 0x9e3779b97f4a7c15ULL) { reseed(seed); }

    /** Re-initialise the state from a 64-bit seed. */
    void reseed(uint64_t seed);

    /** Next raw 64-bit output. */
    uint64_t
    next()
    {
        uint64_t result = rotl(s_[1] * 5, 7) * 9;
        uint64_t t = s_[1] << 17;
        s_[2] ^= s_[0];
        s_[3] ^= s_[1];
        s_[1] ^= s_[2];
        s_[0] ^= s_[3];
        s_[2] ^= t;
        s_[3] = rotl(s_[3], 45);
        return result;
    }

    /** Uniform integer in [0, bound). bound must be > 0. */
    uint64_t
    below(uint64_t bound)
    {
        if (bound == 0)
            panic("Rng::below called with bound 0");
        uint64_t out;
        while (!reduce(next(), bound, out)) {
        }
        return out;
    }

    /**
     * One rejection-sampling step of below(): false when the raw draw
     * r lies in the biased zone [0, 2^64 mod bound) and must be
     * redrawn, else `out` = r % bound — the textbook
     * `r >= -bound % bound ? r % bound : reject`, bit for bit. The
     * zone ends below bound, so the division that sizes it is only
     * made when r < bound (probability bound / 2^64): one division
     * per draw instead of two, and none for a power-of-two bound.
     */
    static bool
    reduce(uint64_t r, uint64_t bound, uint64_t &out)
    {
        if ((bound & (bound - 1)) == 0) {
            // A power of two divides 2^64: no zone, and r % bound is
            // a mask.
            out = r & (bound - 1);
            return true;
        }
        if (r < bound) [[unlikely]] {
            if (r < -bound % bound)
                return false;
            out = r;
            return true;
        }
        out = r % bound;
        return true;
    }

    /** Advance the stream by n draws: the state n next() calls leave. */
    void
    discard(uint64_t n)
    {
        for (; n > 0; --n)
            next();
    }

    /** Uniform integer in [lo, hi] inclusive. */
    int64_t range(int64_t lo, int64_t hi);

    /** Uniform double in [0, 1). */
    double
    uniform()
    {
        return static_cast<double>(next() >> 11) * 0x1.0p-53;
    }

    /** Bernoulli draw with probability p of true: uniform() < p,
     * compared in integers (see chanceThreshold). */
    bool
    chance(double p)
    {
        if (p <= 0.0)
            return false;
        if (p >= 1.0)
            return true;
        return (next() >> 11) < chanceThreshold(p);
    }

    /**
     * The integer form of `uniform() < p` for 0 < p < 1: uniform() is
     * x * 2^-53 for the integer x = next() >> 11, and scaling by a
     * power of two is exact, so the test is x < p * 2^53, i.e.
     * x < ceil(p * 2^53). The threshold depends on p alone, so the
     * draw's path to the branch is a shift and a compare.
     */
    static uint64_t
    chanceThreshold(double p)
    {
        double scaled = p * 0x1.0p53;
        auto t = static_cast<uint64_t>(scaled);
        return t + (static_cast<double>(t) < scaled ? 1 : 0);
    }

    /** Fisher-Yates shuffle of a random-access container. */
    template <typename Vec>
    void
    shuffle(Vec &v)
    {
        if (v.size() < 2)
            return;
        for (size_t i = v.size() - 1; i > 0; --i) {
            size_t j = static_cast<size_t>(below(i + 1));
            std::swap(v[i], v[j]);
        }
    }

    /** Split off an independently seeded child generator. */
    Rng split();

  private:
    static uint64_t
    rotl(uint64_t x, int k)
    {
        return (x << k) | (x >> (64 - k));
    }

    uint64_t s_[4];
};

} // namespace gpulitmus

#endif // GPULITMUS_COMMON_RNG_H

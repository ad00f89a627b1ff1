/**
 * @file
 * Deterministic, seedable random number generation.
 *
 * MARLin uses xoshiro256** seeded through SplitMix64 rather than
 * std::mt19937 so that results are bit-reproducible across standard
 * library implementations and fast enough for per-sample use inside
 * the replay samplers (the paper's hot path draws 1024 indices per
 * agent per update).
 */

#ifndef MARLIN_BASE_RANDOM_HH
#define MARLIN_BASE_RANDOM_HH

#include <cstdint>
#include <vector>

#include "marlin/base/types.hh"

namespace marlin
{

/** SplitMix64 — used to expand a single seed into xoshiro state. */
class SplitMix64
{
  public:
    explicit SplitMix64(std::uint64_t seed) : state(seed) {}

    /** Next 64-bit value. */
    std::uint64_t
    next()
    {
        std::uint64_t z = (state += 0x9e3779b97f4a7c15ULL);
        z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
        z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
        return z ^ (z >> 31);
    }

  private:
    std::uint64_t state;
};

/**
 * Complete serializable Rng state: the four xoshiro words plus the
 * Box-Muller spare cache. Restoring this mid-run continues the
 * stream bit-identically — including the parity of gaussian()
 * draws — which full-state checkpointing depends on.
 */
struct RngState
{
    std::uint64_t s[4] = {0, 0, 0, 0};
    bool haveSpare = false;
    double spare = 0.0;
};

/**
 * xoshiro256** PRNG with convenience distributions.
 *
 * All distribution helpers are deterministic functions of the stream,
 * so a fixed seed yields a bit-identical training run.
 */
class Rng
{
  public:
    using result_type = std::uint64_t;

    /** Construct from a 64-bit seed (expanded via SplitMix64). */
    explicit Rng(std::uint64_t seed = 0x5eed5eed5eedULL);

    /** Re-seed in place. */
    void seed(std::uint64_t seed);

    /** Raw 64-bit draw. */
    std::uint64_t next();

    // UniformRandomBitGenerator interface (usable with std::shuffle).
    static constexpr result_type min() { return 0; }
    static constexpr result_type max() { return ~0ULL; }
    result_type operator()() { return next(); }

    /** Uniform double in [0, 1). */
    double uniform();

    /** Uniform float in [0, 1). */
    float uniformf();

    /** Uniform double in [lo, hi). */
    double uniform(double lo, double hi);

    /** Uniform integer in [0, n). @pre n > 0. */
    std::uint64_t randint(std::uint64_t n);

    /** Standard normal via Box-Muller (cached spare). */
    double gaussian();

    /** Normal with mean @p mu and std @p sigma. */
    double gaussian(double mu, double sigma);

    /**
     * Sample @p count indices uniformly from [0, n) with replacement
     * into caller-owned storage (capacity-retaining). This mirrors
     * the mini-batch index draw of the baseline MARL sampling phase
     * (random.sample over the buffer in the paper's Algorithm 1
     * pseudo-code; reference implementations sample with
     * replacement).
     */
    void sampleIndicesInto(BufferIndex n, std::size_t count,
                           std::vector<BufferIndex> &out);

    /** Snapshot the full generator state for checkpointing. */
    RngState state() const;

    /** Restore a snapshot taken by state(). */
    void setState(const RngState &state);

  private:
    std::uint64_t s[4];
    bool have_spare = false;
    double spare = 0.0;
};

} // namespace marlin

#endif // MARLIN_BASE_RANDOM_HH

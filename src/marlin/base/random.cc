#include "marlin/base/random.hh"

#include <cmath>

#include "marlin/base/logging.hh"

namespace marlin
{

namespace
{

inline std::uint64_t
rotl(std::uint64_t x, int k)
{
    return (x << k) | (x >> (64 - k));
}

} // namespace

Rng::Rng(std::uint64_t seed_value)
{
    seed(seed_value);
}

void
Rng::seed(std::uint64_t seed_value)
{
    SplitMix64 sm(seed_value);
    for (auto &word : s)
        word = sm.next();
    have_spare = false;
}

std::uint64_t
Rng::next()
{
    const std::uint64_t result = rotl(s[1] * 5, 7) * 9;
    const std::uint64_t t = s[1] << 17;
    s[2] ^= s[0];
    s[3] ^= s[1];
    s[1] ^= s[2];
    s[0] ^= s[3];
    s[2] ^= t;
    s[3] = rotl(s[3], 45);
    return result;
}

double
Rng::uniform()
{
    // 53 high bits -> double in [0, 1).
    return static_cast<double>(next() >> 11) * 0x1.0p-53;
}

float
Rng::uniformf()
{
    return static_cast<float>(next() >> 40) * 0x1.0p-24f;
}

double
Rng::uniform(double lo, double hi)
{
    return lo + (hi - lo) * uniform();
}

std::uint64_t
Rng::randint(std::uint64_t n)
{
    MARLIN_ASSERT(n > 0, "randint range must be positive");
    // Lemire's unbiased bounded generation.
    std::uint64_t x = next();
    __uint128_t m = static_cast<__uint128_t>(x) * n;
    std::uint64_t l = static_cast<std::uint64_t>(m);
    if (l < n) {
        std::uint64_t t = -n % n;
        while (l < t) {
            x = next();
            m = static_cast<__uint128_t>(x) * n;
            l = static_cast<std::uint64_t>(m);
        }
    }
    return static_cast<std::uint64_t>(m >> 64);
}

double
Rng::gaussian()
{
    if (have_spare) {
        have_spare = false;
        return spare;
    }
    double u1, u2;
    do {
        u1 = uniform();
    } while (u1 <= 0.0);
    u2 = uniform();
    double mag = std::sqrt(-2.0 * std::log(u1));
    spare = mag * std::sin(2.0 * M_PI * u2);
    have_spare = true;
    return mag * std::cos(2.0 * M_PI * u2);
}

double
Rng::gaussian(double mu, double sigma)
{
    return mu + sigma * gaussian();
}

void
Rng::sampleIndicesInto(BufferIndex n, std::size_t count,
                       std::vector<BufferIndex> &out)
{
    MARLIN_ASSERT(n > 0, "cannot sample from an empty range");
    out.resize(count);
    for (auto &idx : out)
        idx = static_cast<BufferIndex>(randint(n));
}

RngState
Rng::state() const
{
    RngState snapshot;
    for (int i = 0; i < 4; ++i)
        snapshot.s[i] = s[i];
    snapshot.haveSpare = have_spare;
    snapshot.spare = spare;
    return snapshot;
}

void
Rng::setState(const RngState &state)
{
    for (int i = 0; i < 4; ++i)
        s[i] = state.s[i];
    have_spare = state.haveSpare;
    spare = state.spare;
}

} // namespace marlin

/**
 * @file
 * Unit tests for marlin/base: string utilities and the RNG.
 */

#include <gtest/gtest.h>

#include <algorithm>

#include "marlin/base/random.hh"
#include "marlin/base/string_utils.hh"

namespace marlin
{
namespace
{

TEST(StringUtils, CsprintfFormats)
{
    EXPECT_EQ(csprintf("a=%d b=%s", 3, "x"), "a=3 b=x");
    EXPECT_EQ(csprintf("%.2f", 1.5), "1.50");
    EXPECT_EQ(csprintf("empty"), "empty");
}

TEST(StringUtils, CsprintfLongOutput)
{
    std::string big(500, 'y');
    EXPECT_EQ(csprintf("%s", big.c_str()).size(), 500u);
}

TEST(StringUtils, TokenizeDropsEmptyFields)
{
    auto t = tokenize("a,,b,c,", ',');
    ASSERT_EQ(t.size(), 3u);
    EXPECT_EQ(t[0], "a");
    EXPECT_EQ(t[1], "b");
    EXPECT_EQ(t[2], "c");
}

TEST(StringUtils, TokenizeEmptyString)
{
    EXPECT_TRUE(tokenize("", ',').empty());
}

TEST(StringUtils, FormatBytes)
{
    EXPECT_EQ(formatBytes(512), "512 B");
    EXPECT_EQ(formatBytes(2048), "2.00 KiB");
    EXPECT_EQ(formatBytes(3 * 1024 * 1024), "3.00 MiB");
}

TEST(Rng, Deterministic)
{
    Rng a(42), b(42);
    for (int i = 0; i < 100; ++i)
        EXPECT_EQ(a.next(), b.next());
}

TEST(Rng, SeedsDiffer)
{
    Rng a(1), b(2);
    int same = 0;
    for (int i = 0; i < 100; ++i)
        same += a.next() == b.next();
    EXPECT_LT(same, 3);
}

TEST(Rng, UniformInRange)
{
    Rng rng(7);
    for (int i = 0; i < 10000; ++i) {
        const double u = rng.uniform();
        EXPECT_GE(u, 0.0);
        EXPECT_LT(u, 1.0);
    }
}

TEST(Rng, UniformBoundsRespected)
{
    Rng rng(7);
    for (int i = 0; i < 1000; ++i) {
        const double u = rng.uniform(-2.0, 3.0);
        EXPECT_GE(u, -2.0);
        EXPECT_LT(u, 3.0);
    }
}

TEST(Rng, RandintCoversRangeUniformly)
{
    Rng rng(11);
    constexpr std::uint64_t n = 10;
    std::array<int, n> counts{};
    constexpr int draws = 100000;
    for (int i = 0; i < draws; ++i)
        ++counts[rng.randint(n)];
    // Chi-squared against uniform with 9 dof; 99.9% critical ~27.9.
    double chi2 = 0;
    const double expected = draws / static_cast<double>(n);
    for (int c : counts) {
        const double d = c - expected;
        chi2 += d * d / expected;
    }
    EXPECT_LT(chi2, 27.9);
}

TEST(Rng, GaussianMoments)
{
    Rng rng(13);
    double sum = 0, sum_sq = 0;
    constexpr int draws = 200000;
    for (int i = 0; i < draws; ++i) {
        const double g = rng.gaussian();
        sum += g;
        sum_sq += g * g;
    }
    const double mean = sum / draws;
    const double var = sum_sq / draws - mean * mean;
    EXPECT_NEAR(mean, 0.0, 0.02);
    EXPECT_NEAR(var, 1.0, 0.03);
}

TEST(Rng, GaussianScaled)
{
    Rng rng(17);
    double sum = 0;
    constexpr int draws = 100000;
    for (int i = 0; i < draws; ++i)
        sum += rng.gaussian(5.0, 0.5);
    EXPECT_NEAR(sum / draws, 5.0, 0.02);
}

TEST(Rng, SampleIndicesWithinBounds)
{
    Rng rng(19);
    std::vector<BufferIndex> idx;
    rng.sampleIndicesInto(1000, 256, idx);
    ASSERT_EQ(idx.size(), 256u);
    for (auto i : idx)
        EXPECT_LT(i, 1000u);
}

TEST(SplitMix64, KnownSequenceIsStable)
{
    SplitMix64 a(123), b(123);
    EXPECT_EQ(a.next(), b.next());
    EXPECT_NE(a.next(), 0u);
}

} // namespace
} // namespace marlin

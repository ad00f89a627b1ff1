/**
 * @file
 * Property tests for the PER sum tree, including an exhaustive
 * comparison against a linear-scan oracle.
 */

#include <gtest/gtest.h>

#include <numeric>
#include <set>
#include <vector>

#include "marlin/base/random.hh"
#include "marlin/replay/sum_tree.hh"

namespace marlin::replay
{
namespace
{

/** Linear-scan oracle for prefix-sum lookup. */
BufferIndex
oracleFind(const std::vector<double> &priorities, double prefix)
{
    double acc = 0;
    for (BufferIndex i = 0; i < priorities.size(); ++i) {
        acc += priorities[i];
        if (prefix < acc)
            return i;
    }
    return priorities.size() - 1;
}

TEST(SumTree, EmptyTotalsZero)
{
    SumTree tree(16);
    EXPECT_EQ(tree.total(), 0.0);
    EXPECT_EQ(tree.priorityOf(5), 0.0);
}

TEST(SumTree, SetUpdatesTotal)
{
    SumTree tree(8);
    tree.set(0, 1.0);
    tree.set(3, 2.5);
    EXPECT_NEAR(tree.total(), 3.5, 1e-12);
    tree.set(3, 0.5);
    EXPECT_NEAR(tree.total(), 1.5, 1e-12);
    EXPECT_NEAR(tree.priorityOf(3), 0.5, 1e-12);
}

TEST(SumTree, NonPowerOfTwoCapacity)
{
    SumTree tree(100);
    for (BufferIndex i = 0; i < 100; ++i)
        tree.set(i, 1.0);
    EXPECT_NEAR(tree.total(), 100.0, 1e-9);
    EXPECT_EQ(tree.find(99.5), 99u);
    EXPECT_EQ(tree.find(0.5), 0u);
}

TEST(SumTree, FindBoundaries)
{
    SumTree tree(4);
    tree.set(0, 1.0);
    tree.set(1, 2.0);
    tree.set(2, 3.0);
    tree.set(3, 4.0);
    EXPECT_EQ(tree.find(0.0), 0u);
    EXPECT_EQ(tree.find(0.999), 0u);
    EXPECT_EQ(tree.find(1.0), 1u);
    EXPECT_EQ(tree.find(2.999), 1u);
    EXPECT_EQ(tree.find(3.0), 2u);
    EXPECT_EQ(tree.find(5.999), 2u);
    EXPECT_EQ(tree.find(6.0), 3u);
    EXPECT_EQ(tree.find(9.999), 3u);
}

TEST(SumTree, SkipsZeroPriorityLeaves)
{
    SumTree tree(8);
    tree.set(2, 1.0);
    tree.set(6, 1.0);
    for (double p = 0.05; p < 2.0; p += 0.1) {
        const BufferIndex leaf = tree.find(p);
        EXPECT_TRUE(leaf == 2 || leaf == 6) << "prefix " << p;
    }
}

TEST(SumTree, MaxPriorityTracksUpdates)
{
    SumTree tree(8);
    EXPECT_EQ(tree.maxPriority(), 1.0); // Default before updates.
    tree.set(1, 5.0);
    EXPECT_EQ(tree.maxPriority(), 5.0);
    tree.set(2, 3.0);
    EXPECT_EQ(tree.maxPriority(), 5.0);
}

TEST(SumTree, ClearResets)
{
    SumTree tree(8);
    tree.set(0, 2.0);
    tree.clear();
    EXPECT_EQ(tree.total(), 0.0);
    EXPECT_EQ(tree.priorityOf(0), 0.0);
    EXPECT_EQ(tree.maxPriority(), 1.0);
}

class SumTreeOracle : public ::testing::TestWithParam<std::size_t>
{
};

TEST_P(SumTreeOracle, MatchesLinearScan)
{
    const std::size_t capacity = GetParam();
    SumTree tree(capacity);
    std::vector<double> priorities(capacity, 0.0);
    Rng rng(capacity * 31 + 7);

    // Randomized updates followed by randomized lookups, repeated.
    for (int round = 0; round < 20; ++round) {
        for (int u = 0; u < 16; ++u) {
            const BufferIndex idx = rng.randint(capacity);
            const double p = rng.uniform(0.0, 4.0);
            tree.set(idx, p);
            priorities[idx] = p;
        }
        const double total = std::accumulate(priorities.begin(),
                                             priorities.end(), 0.0);
        ASSERT_NEAR(tree.total(), total, 1e-9);
        if (total <= 0)
            continue;
        for (int q = 0; q < 32; ++q) {
            const double prefix = rng.uniform() * total * 0.999999;
            EXPECT_EQ(tree.find(prefix),
                      oracleFind(priorities, prefix))
                << "prefix " << prefix;
        }
    }
}

INSTANTIATE_TEST_SUITE_P(Capacities, SumTreeOracle,
                         ::testing::Values(1, 2, 3, 7, 8, 33, 100,
                                           256, 1000));

TEST(SumTree, StratifiedSamplingHitsAllPositiveLeaves)
{
    SumTree tree(32);
    for (BufferIndex i = 0; i < 32; ++i)
        tree.set(i, 1.0);
    std::set<BufferIndex> hit;
    const double segment = tree.total() / 64.0;
    for (int s = 0; s < 64; ++s)
        hit.insert(tree.find((s + 0.5) * segment));
    EXPECT_EQ(hit.size(), 32u);
}

} // namespace
} // namespace marlin::replay

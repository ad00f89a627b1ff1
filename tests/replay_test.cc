/**
 * @file
 * Unit and property tests for marlin/replay: ring buffers, the
 * gather loop, and the four sampling strategies.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <set>

#include "marlin/replay/gather.hh"
#include "marlin/replay/info_prioritized_sampler.hh"
#include "marlin/replay/locality_sampler.hh"
#include "marlin/replay/prioritized_sampler.hh"
#include "marlin/replay/uniform_sampler.hh"

namespace marlin::replay
{
namespace
{

/** Write a recognizable transition t: obs filled with t, reward t. */
void
addMarked(ReplayBuffer &buf, int t)
{
    const auto &shape = buf.shape();
    std::vector<Real> obs(shape.obsDim, static_cast<Real>(t));
    std::vector<Real> act(shape.actDim, Real(0));
    act[static_cast<std::size_t>(t) % shape.actDim] = Real(1);
    std::vector<Real> next(shape.obsDim, static_cast<Real>(t) + 0.5f);
    buf.add(obs, act, static_cast<Real>(t), next, t % 7 == 0);
}

TEST(ReplayBuffer, StartsEmpty)
{
    ReplayBuffer buf({4, 5}, 16);
    EXPECT_TRUE(buf.empty());
    EXPECT_EQ(buf.size(), 0u);
    EXPECT_EQ(buf.capacity(), 16u);
}

TEST(ReplayBuffer, AddAndView)
{
    ReplayBuffer buf({4, 5}, 16);
    addMarked(buf, 3);
    EXPECT_EQ(buf.size(), 1u);
    auto view = buf.view(0);
    EXPECT_EQ(view.obs[0], Real(3));
    EXPECT_EQ(view.reward, Real(3));
    EXPECT_EQ(view.nextObs[0], Real(3.5));
    EXPECT_EQ(view.done, Real(0));
}

TEST(ReplayBuffer, RingWraparoundOverwritesOldest)
{
    ReplayBuffer buf({2, 5}, 4);
    for (int t = 0; t < 6; ++t)
        addMarked(buf, t);
    EXPECT_EQ(buf.size(), 4u);
    EXPECT_EQ(buf.position(), 2u);
    // Slots 0,1 now hold t=4,5; slots 2,3 hold t=2,3.
    EXPECT_EQ(buf.view(0).reward, Real(4));
    EXPECT_EQ(buf.view(1).reward, Real(5));
    EXPECT_EQ(buf.view(2).reward, Real(2));
    EXPECT_EQ(buf.view(3).reward, Real(3));
}

TEST(ReplayBuffer, DoneFlagRoundTrips)
{
    ReplayBuffer buf({2, 5}, 8);
    addMarked(buf, 0); // 0 % 7 == 0 -> done.
    addMarked(buf, 1);
    EXPECT_EQ(buf.view(0).done, Real(1));
    EXPECT_EQ(buf.view(1).done, Real(0));
}

TEST(ReplayBuffer, StorageBytesAccounts)
{
    ReplayBuffer buf({4, 5}, 10);
    // (2*4 + 5 + 2) * 10 floats.
    EXPECT_EQ(buf.storageBytes(), (2 * 4 + 5 + 2) * 10 * sizeof(Real));
}

TEST(MultiAgentBuffer, SynchronizedAdds)
{
    MultiAgentBuffer buf({{3, 5}, {4, 5}}, 8);
    EXPECT_EQ(buf.numAgents(), 2u);
    std::vector<std::vector<Real>> obs = {{1, 1, 1}, {2, 2, 2, 2}};
    std::vector<std::vector<Real>> act = {{1, 0, 0, 0, 0},
                                          {0, 1, 0, 0, 0}};
    std::vector<Real> rew = {1, 2};
    std::vector<std::vector<Real>> next = {{3, 3, 3}, {4, 4, 4, 4}};
    std::vector<bool> done = {false, true};
    buf.append(obs, act, rew, next, done);
    EXPECT_EQ(buf.size(), 1u);
    EXPECT_EQ(buf.agent(0).view(0).reward, Real(1));
    EXPECT_EQ(buf.agent(1).view(0).reward, Real(2));
    EXPECT_EQ(buf.agent(1).view(0).done, Real(1));
}

TEST(Gather, CopiesCorrectRows)
{
    ReplayBuffer buf({3, 5}, 32);
    for (int t = 0; t < 20; ++t)
        addMarked(buf, t);
    IndexPlan plan;
    plan.indices = {0, 5, 19, 5};
    AgentBatch batch;
    gatherAgentBatch(buf, plan, batch);
    EXPECT_EQ(batch.obs.rows(), 4u);
    EXPECT_EQ(batch.obs(0, 0), Real(0));
    EXPECT_EQ(batch.obs(1, 0), Real(5));
    EXPECT_EQ(batch.obs(2, 2), Real(19));
    EXPECT_EQ(batch.rewards(3, 0), Real(5));
    EXPECT_EQ(batch.nextObs(1, 0), Real(5.5));
}

TEST(Gather, TraceRecordsThreeEntriesPerRow)
{
    ReplayBuffer buf({3, 5}, 32);
    for (int t = 0; t < 8; ++t)
        addMarked(buf, t);
    IndexPlan plan;
    plan.indices = {1, 2, 3};
    AgentBatch batch;
    AccessTrace trace;
    gatherAgentBatch(buf, plan, batch, &trace);
    // obs + act + nextObs per row.
    EXPECT_EQ(trace.size(), 9u);
    EXPECT_EQ(trace.totalBytes(),
              3 * (3 + 5 + 3) * sizeof(Real));
}

TEST(Gather, AllAgents)
{
    MultiAgentBuffer buf({{2, 5}, {3, 5}, {4, 5}}, 16);
    for (int t = 0; t < 10; ++t) {
        std::vector<std::vector<Real>> obs = {
            {Real(t), 0}, {Real(t), 0, 0}, {Real(t), 0, 0, 0}};
        std::vector<std::vector<Real>> act(
            3, std::vector<Real>{1, 0, 0, 0, 0});
        std::vector<Real> rew = {Real(t), Real(t * 2), Real(t * 3)};
        std::vector<std::vector<Real>> next = obs;
        std::vector<bool> done(3, false);
        buf.append(obs, act, rew, next, done);
    }
    IndexPlan plan;
    plan.indices = {7, 3};
    std::vector<AgentBatch> batches;
    gatherAllAgents(buf, plan, batches);
    ASSERT_EQ(batches.size(), 3u);
    EXPECT_EQ(batches[0].obs.cols(), 2u);
    EXPECT_EQ(batches[2].obs.cols(), 4u);
    EXPECT_EQ(batches[1].rewards(0, 0), Real(14));
    EXPECT_EQ(batches[2].rewards(1, 0), Real(9));
}

// --- Samplers ------------------------------------------------------

TEST(UniformSampler, IndicesInRangeAndCovering)
{
    UniformSampler sampler;
    Rng rng(1);
    auto plan = sampler.plan(1000, 4096, rng);
    EXPECT_EQ(plan.batchSize(), 4096u);
    EXPECT_TRUE(plan.weights.empty());
    std::set<BufferIndex> seen;
    for (auto i : plan.indices) {
        EXPECT_LT(i, 1000u);
        seen.insert(i);
    }
    // 4096 draws over 1000 slots should cover most of the buffer.
    EXPECT_GT(seen.size(), 900u);
}

TEST(UniformSampler, ApproximatelyUniform)
{
    UniformSampler sampler;
    Rng rng(2);
    std::vector<int> counts(64, 0);
    for (int rep = 0; rep < 100; ++rep) {
        auto plan = sampler.plan(64, 640, rng);
        for (auto i : plan.indices)
            ++counts[i];
    }
    // Expected 1000 per slot; chi-squared 63 dof, 99.9% ~ 103.4.
    double chi2 = 0;
    for (int c : counts) {
        const double d = c - 1000.0;
        chi2 += d * d / 1000.0;
    }
    EXPECT_LT(chi2, 103.4);
}

class LocalityParams
    : public ::testing::TestWithParam<std::pair<std::size_t,
                                                std::size_t>>
{
};

TEST_P(LocalityParams, RunsAreContiguous)
{
    const auto [neighbors, refs] = GetParam();
    LocalityAwareSampler sampler({neighbors, refs});
    Rng rng(3);
    const std::size_t batch = neighbors * refs;
    auto plan = sampler.plan(100000, batch, rng);
    EXPECT_EQ(plan.batchSize(), batch);
    // Every aligned block of `neighbors` must be consecutive.
    for (std::size_t b = 0; b < batch; b += neighbors) {
        for (std::size_t k = 1; k < neighbors; ++k) {
            EXPECT_EQ(plan.indices[b + k], plan.indices[b] + k)
                << "run starting at " << b;
        }
    }
}

TEST_P(LocalityParams, AnchorsSpreadAcrossBuffer)
{
    const auto [neighbors, refs] = GetParam();
    LocalityAwareSampler sampler({neighbors, refs});
    Rng rng(4);
    const std::size_t batch = neighbors * refs;
    std::set<BufferIndex> anchors;
    for (int rep = 0; rep < 50; ++rep) {
        auto plan = sampler.plan(1 << 20, batch, rng);
        for (std::size_t b = 0; b < batch; b += neighbors)
            anchors.insert(plan.indices[b]);
    }
    // Random anchors over 1M slots should essentially never repeat.
    EXPECT_GT(anchors.size(), 45u * refs);
}

INSTANTIATE_TEST_SUITE_P(
    PaperSettings, LocalityParams,
    ::testing::Values(std::make_pair(16, 64),
                      std::make_pair(64, 16),
                      std::make_pair(4, 8)));

TEST(LocalitySampler, IndicesStayValidNearBufferEnd)
{
    LocalityAwareSampler sampler({64, 16});
    Rng rng(5);
    auto plan = sampler.plan(70, 1024, rng); // Buffer barely > run.
    for (auto i : plan.indices)
        EXPECT_LT(i, 70u);
}

TEST(LocalitySampler, SmallBufferClampsRun)
{
    LocalityAwareSampler sampler({64, 16});
    Rng rng(6);
    auto plan = sampler.plan(8, 32, rng); // Buffer smaller than run.
    EXPECT_EQ(plan.batchSize(), 32u);
    for (auto i : plan.indices)
        EXPECT_LT(i, 8u);
}

TEST(PrioritizedSampler, NewTransitionsGetMaxPriority)
{
    PerConfig cfg;
    cfg.capacity = 64;
    PrioritizedSampler sampler(cfg);
    sampler.onAdd(0);
    EXPECT_GT(sampler.tree().priorityOf(0), 0.0);
    EXPECT_EQ(sampler.tree().priorityOf(1), 0.0);
}

TEST(PrioritizedSampler, SamplesProportionallyToPriority)
{
    PerConfig cfg;
    cfg.capacity = 4;
    cfg.alpha = Real(1);
    PrioritizedSampler sampler(cfg);
    for (BufferIndex i = 0; i < 4; ++i)
        sampler.onAdd(i);
    // Give slot 2 ten times the TD error of the others.
    sampler.updatePriorities({0, 1, 2, 3},
                             {Real(0.1), Real(0.1), Real(1.0),
                              Real(0.1)});
    Rng rng(7);
    std::array<int, 4> counts{};
    for (int rep = 0; rep < 200; ++rep) {
        auto plan = sampler.plan(4, 64, rng);
        for (auto i : plan.indices)
            ++counts[i];
    }
    // Slot 2 holds ~1.0/1.3 of the mass.
    const double total = 200 * 64;
    EXPECT_NEAR(counts[2] / total, 1.0 / 1.3, 0.05);
    EXPECT_NEAR(counts[0] / total, 0.1 / 1.3, 0.03);
}

TEST(PrioritizedSampler, WeightsNormalizedToMaxOne)
{
    PerConfig cfg;
    cfg.capacity = 128;
    PrioritizedSampler sampler(cfg);
    for (BufferIndex i = 0; i < 128; ++i)
        sampler.onAdd(i);
    std::vector<BufferIndex> ids(128);
    std::vector<Real> tds(128);
    Rng noise(8);
    for (BufferIndex i = 0; i < 128; ++i) {
        ids[i] = i;
        tds[i] = static_cast<Real>(noise.uniform(0.01, 2.0));
    }
    sampler.updatePriorities(ids, tds);
    Rng rng(9);
    auto plan = sampler.plan(128, 256, rng);
    ASSERT_EQ(plan.weights.size(), 256u);
    Real max_w = 0;
    for (Real w : plan.weights) {
        EXPECT_GT(w, Real(0));
        EXPECT_LE(w, Real(1) + Real(1e-5));
        max_w = std::max(max_w, w);
    }
    EXPECT_NEAR(max_w, 1.0, 1e-5);
}

TEST(PrioritizedSampler, BetaAnneals)
{
    PerConfig cfg;
    cfg.capacity = 16;
    cfg.beta = Real(0.4);
    cfg.betaAnneal = Real(0.1);
    PrioritizedSampler sampler(cfg);
    for (BufferIndex i = 0; i < 16; ++i)
        sampler.onAdd(i);
    Rng rng(10);
    for (int i = 0; i < 10; ++i)
        sampler.plan(16, 8, rng);
    EXPECT_NEAR(sampler.currentBeta(), 1.0, 1e-5);
}

TEST(NeighborPredictor, ThresholdsFollowPaper)
{
    NeighborPredictorConfig cfg;
    EXPECT_EQ(predictNeighbors(Real(0.0), cfg), 1u);
    EXPECT_EQ(predictNeighbors(Real(0.32), cfg), 1u);
    EXPECT_EQ(predictNeighbors(Real(0.33), cfg), 2u);
    EXPECT_EQ(predictNeighbors(Real(0.65), cfg), 2u);
    EXPECT_EQ(predictNeighbors(Real(0.66), cfg), 4u);
    EXPECT_EQ(predictNeighbors(Real(1.0), cfg), 4u);
}

TEST(InfoPrioritizedSampler, FillsExactBatch)
{
    PerConfig cfg;
    cfg.capacity = 1 << 12;
    InfoPrioritizedLocalitySampler sampler(cfg);
    for (BufferIndex i = 0; i < (1 << 12); ++i)
        sampler.onAdd(i);
    Rng rng(11);
    auto plan = sampler.plan(1 << 12, 1024, rng);
    EXPECT_EQ(plan.batchSize(), 1024u);
    EXPECT_EQ(plan.weights.size(), 1024u);
    EXPECT_EQ(plan.priorityIds.size(), 1024u);
    for (auto i : plan.indices)
        EXPECT_LT(i, 1u << 12);
}

TEST(InfoPrioritizedSampler, HighPriorityReferencesExpandRuns)
{
    PerConfig cfg;
    cfg.capacity = 256;
    cfg.alpha = Real(1);
    InfoPrioritizedLocalitySampler sampler(cfg);
    for (BufferIndex i = 0; i < 256; ++i)
        sampler.onAdd(i);
    // One dominant transition: its normalized priority is 1 -> runs
    // of 4 anchored at it should appear.
    std::vector<BufferIndex> ids(256);
    std::vector<Real> tds(256, Real(0.01));
    for (BufferIndex i = 0; i < 256; ++i)
        ids[i] = i;
    tds[100] = Real(10);
    sampler.updatePriorities(ids, tds);

    Rng rng(12);
    auto plan = sampler.plan(256, 64, rng);
    int runs_at_100 = 0;
    for (std::size_t b = 0; b + 3 < plan.indices.size(); ++b) {
        if (plan.indices[b] == 100 && plan.indices[b + 1] == 101 &&
            plan.indices[b + 2] == 102 && plan.indices[b + 3] == 103)
            ++runs_at_100;
    }
    EXPECT_GT(runs_at_100, 0);
}

TEST(InfoPrioritizedSampler, TdWritebackTargetsReference)
{
    PerConfig cfg;
    cfg.capacity = 64;
    InfoPrioritizedLocalitySampler sampler(cfg);
    for (BufferIndex i = 0; i < 64; ++i)
        sampler.onAdd(i);
    Rng rng(13);
    auto plan = sampler.plan(64, 16, rng);
    // All rows of a run share the reference's priority id.
    for (std::size_t b = 0; b < plan.indices.size(); ++b)
        EXPECT_LT(plan.priorityIds[b], 64u);
    // Write back and ensure the tree was updated without throwing.
    std::vector<Real> tds(plan.priorityIds.size(), Real(0.5));
    sampler.updatePriorities(plan.priorityIds, tds);
}

} // namespace
} // namespace marlin::replay

/**
 * @file
 * Tests for the AoS record layout and the rank-based prioritized
 * sampler (the proportional-PER ablation counterparts). The AoS
 * layout — one contiguous [obs | act | reward | nextObs | done]
 * record per timestep — is a one-agent record-major ShardedStore.
 */

#include <gtest/gtest.h>

#include <set>

#include "marlin/replay/gather.hh"
#include "marlin/replay/rank_sampler.hh"
#include "marlin/replay/sharded_store.hh"
#include "marlin/replay/uniform_sampler.hh"

namespace marlin::replay
{
namespace
{

void
addMarked(ReplayStore &buf, int t)
{
    const TransitionShape &shape = buf.agentShape(0);
    std::vector<Real> act(shape.actDim, Real(0));
    act[static_cast<std::size_t>(t) % shape.actDim] = Real(1);
    buf.append({std::vector<Real>(shape.obsDim, static_cast<Real>(t))},
               {act}, {static_cast<Real>(t)},
               {std::vector<Real>(shape.obsDim,
                                  static_cast<Real>(t) + 0.5f)},
               {t % 5 == 0});
}

/** Gather slots @p indices of a one-agent store. */
AgentBatch
gatherRows(const ReplayStore &buf, std::vector<BufferIndex> indices,
           AccessTrace *trace = nullptr)
{
    IndexPlan plan;
    plan.indices = std::move(indices);
    AgentBatch out;
    buf.gatherAgent(0, plan, out, trace);
    return out;
}

TEST(AosBuffer, RecordSizeAndStorage)
{
    ShardedStore buf({{4, 5}}, 8, {});
    EXPECT_EQ(buf.layout().stride, 2u * 4 + 5 + 2);
    EXPECT_EQ(buf.storageBytes(),
              buf.layout().stride * 8 * sizeof(Real));
}

TEST(AosBuffer, ViewRoundTrip)
{
    ShardedStore buf({{3, 5}}, 8, {});
    addMarked(buf, 7);
    const AgentBatch v = gatherRows(buf, {0});
    EXPECT_EQ(v.obs(0, 0), Real(7));
    EXPECT_EQ(v.obs(0, 2), Real(7));
    EXPECT_EQ(v.actions(0, 2), Real(1)); // 7 % 5 == 2.
    EXPECT_EQ(v.rewards(0, 0), Real(7));
    EXPECT_EQ(v.nextObs(0, 1), Real(7.5));
    EXPECT_EQ(v.dones(0, 0), Real(0));
}

TEST(AosBuffer, RingWraparound)
{
    ShardedStore buf({{2, 5}}, 4, {});
    for (int t = 0; t < 6; ++t)
        addMarked(buf, t);
    EXPECT_EQ(buf.size(), 4u);
    const AgentBatch v = gatherRows(buf, {0, 1, 2});
    EXPECT_EQ(v.rewards(0, 0), Real(4));
    EXPECT_EQ(v.rewards(1, 0), Real(5));
    EXPECT_EQ(v.rewards(2, 0), Real(2));
}

TEST(AosBuffer, GatherMatchesSoaGather)
{
    // AoS and SoA layouts must produce identical batches for the
    // same content and plan — the ablation only changes memory
    // behaviour, never semantics.
    ShardedStore aos({{3, 5}}, 64, {});
    MultiAgentBuffer soa({{3, 5}}, 64);
    for (int t = 0; t < 40; ++t) {
        addMarked(aos, t);
        addMarked(soa, t);
    }
    const std::vector<BufferIndex> rows = {0, 13, 39, 5, 5};
    const AgentBatch from_aos = gatherRows(aos, rows);
    const AgentBatch from_soa = gatherRows(soa, rows);
    EXPECT_EQ(from_aos.obs, from_soa.obs);
    EXPECT_EQ(from_aos.actions, from_soa.actions);
    EXPECT_EQ(from_aos.rewards, from_soa.rewards);
    EXPECT_EQ(from_aos.nextObs, from_soa.nextObs);
    EXPECT_EQ(from_aos.dones, from_soa.dones);
}

TEST(AosBuffer, GatherTraceIsOneRecordPerRow)
{
    ShardedStore buf({{3, 5}}, 16, {});
    for (int t = 0; t < 8; ++t)
        addMarked(buf, t);
    AccessTrace trace;
    gatherRows(buf, {1, 2, 3}, &trace);
    EXPECT_EQ(trace.size(), 3u);
    EXPECT_EQ(trace.entries()[0].bytes,
              buf.layout().stride * sizeof(Real));
}

TEST(RankSampler, SamplesHighTdSlotsMoreOften)
{
    PerConfig cfg;
    cfg.capacity = 64;
    cfg.alpha = Real(1);
    RankBasedSampler sampler(cfg);
    std::vector<BufferIndex> ids(64);
    std::vector<Real> tds(64, Real(0.1));
    for (BufferIndex i = 0; i < 64; ++i)
        ids[i] = i;
    tds[10] = Real(100); // Rank 1.
    tds[20] = Real(50);  // Rank 2.
    sampler.updatePriorities(ids, tds);

    Rng rng(1);
    std::vector<int> counts(64, 0);
    for (int rep = 0; rep < 50; ++rep) {
        auto plan = sampler.plan(64, 64, rng);
        for (auto i : plan.indices)
            ++counts[i];
    }
    // 1/rank distribution: slot 10 (rank 1) ~2x slot 20 (rank 2),
    // and far more than a mid-rank slot.
    EXPECT_GT(counts[10], counts[20]);
    EXPECT_GT(counts[20], counts[40]);
    EXPECT_GT(counts[10], 3 * counts[40]);
}

TEST(RankSampler, WeightsNormalized)
{
    PerConfig cfg;
    cfg.capacity = 128;
    RankBasedSampler sampler(cfg);
    std::vector<BufferIndex> ids(128);
    std::vector<Real> tds(128);
    Rng noise(2);
    for (BufferIndex i = 0; i < 128; ++i) {
        ids[i] = i;
        tds[i] = noise.uniformf() + Real(0.01);
    }
    sampler.updatePriorities(ids, tds);
    Rng rng(3);
    auto plan = sampler.plan(128, 64, rng);
    ASSERT_EQ(plan.weights.size(), 64u);
    Real max_w = 0;
    for (Real w : plan.weights) {
        EXPECT_GT(w, Real(0));
        EXPECT_LE(w, Real(1) + Real(1e-5));
        max_w = std::max(max_w, w);
    }
    EXPECT_NEAR(max_w, 1.0, 1e-5);
}

TEST(RankSampler, FreshInsertsRankHighly)
{
    PerConfig cfg;
    cfg.capacity = 32;
    cfg.alpha = Real(1);
    RankBasedSampler sampler(cfg);
    std::vector<BufferIndex> ids;
    std::vector<Real> tds;
    for (BufferIndex i = 0; i < 16; ++i) {
        ids.push_back(i);
        tds.push_back(Real(0.05));
    }
    sampler.updatePriorities(ids, tds);
    sampler.onAdd(16); // Enters at running max TD.
    sampler.setResortInterval(1);

    Rng rng(4);
    std::vector<int> counts(32, 0);
    for (int rep = 0; rep < 40; ++rep) {
        auto plan = sampler.plan(17, 32, rng);
        for (auto i : plan.indices)
            ++counts[i];
    }
    int max_other = 0;
    for (BufferIndex i = 0; i < 16; ++i)
        max_other = std::max(max_other, counts[i]);
    EXPECT_GT(counts[16], max_other);
}

TEST(RankSampler, IndicesAlwaysInBufferRange)
{
    PerConfig cfg;
    cfg.capacity = 256;
    RankBasedSampler sampler(cfg);
    for (BufferIndex i = 0; i < 100; ++i)
        sampler.onAdd(i);
    Rng rng(5);
    auto plan = sampler.plan(100, 512, rng);
    for (auto i : plan.indices)
        EXPECT_LT(i, 100u);
}

TEST(RankSampler, BetaAnnealing)
{
    PerConfig cfg;
    cfg.capacity = 16;
    cfg.beta = Real(0.5);
    cfg.betaAnneal = Real(0.25);
    RankBasedSampler sampler(cfg);
    sampler.onAdd(0);
    Rng rng(6);
    sampler.plan(1, 4, rng);
    sampler.plan(1, 4, rng);
    EXPECT_NEAR(sampler.currentBeta(), 1.0, 1e-6);
}

} // namespace
} // namespace marlin::replay

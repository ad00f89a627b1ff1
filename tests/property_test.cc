/**
 * @file
 * Cross-module property tests: parameterized sweeps asserting the
 * invariants the paper's experiments depend on (cache geometry
 * behaviour, sampler contiguity under odd batch sizes, physics
 * conservation, layout equivalence under randomized shapes, loss
 * descent).
 */

#include <gtest/gtest.h>

#include <cmath>

#include "marlin/env/world.hh"
#include "marlin/memsim/cache.hh"
#include "marlin/memsim/tlb.hh"
#include "marlin/nn/adam.hh"
#include "marlin/nn/loss.hh"
#include "marlin/nn/mlp.hh"
#include "marlin/numeric/ops.hh"
#include "marlin/replay/gather.hh"
#include "marlin/replay/locality_sampler.hh"
#include "marlin/replay/prioritized_sampler.hh"
#include "marlin/replay/sharded_store.hh"
#include "marlin/replay/uniform_sampler.hh"

namespace marlin
{
namespace
{

// --- Cache geometry sweep ------------------------------------------

class CacheGeometry
    : public ::testing::TestWithParam<std::pair<std::uint64_t,
                                                std::uint32_t>>
{
};

TEST_P(CacheGeometry, ResidentWorkingSetHitsAfterWarmup)
{
    const auto [size, ways] = GetParam();
    memsim::CacheModel cache({size, 64, ways});
    const std::uint64_t lines = size / 64;
    for (std::uint64_t l = 0; l < lines; ++l)
        cache.access(l * 64);
    const auto misses_cold = cache.stats().misses;
    for (std::uint64_t l = 0; l < lines; ++l)
        cache.access(l * 64);
    // Second sweep of a cache-resident set must be all hits.
    EXPECT_EQ(cache.stats().misses, misses_cold);
    EXPECT_EQ(cache.stats().hits, lines);
}

TEST_P(CacheGeometry, OversizedWorkingSetThrashes)
{
    const auto [size, ways] = GetParam();
    memsim::CacheModel cache({size, 64, ways});
    const std::uint64_t lines = 4 * size / 64;
    for (int rep = 0; rep < 3; ++rep)
        for (std::uint64_t l = 0; l < lines; ++l)
            cache.access(l * 64);
    EXPECT_GT(cache.stats().missRate(), 0.99);
}

INSTANTIATE_TEST_SUITE_P(
    Geometries, CacheGeometry,
    ::testing::Values(std::make_pair(4096, 1),
                      std::make_pair(4096, 4),
                      std::make_pair(32768, 8),
                      std::make_pair(262144, 16)));

TEST(TlbProperty, PageStrideBeyondCapacityAlwaysMisses)
{
    memsim::TlbModel tlb({64, 8, 4096});
    // Touch 4x the TLB's page capacity repeatedly.
    for (int rep = 0; rep < 3; ++rep)
        for (std::uint64_t p = 0; p < 256; ++p)
            tlb.access(p * 4096);
    EXPECT_GT(tlb.stats().missRate(), 0.99);
}

TEST(TlbProperty, IntraPageLocalityAlwaysHitsAfterFirst)
{
    memsim::TlbModel tlb({64, 8, 4096});
    for (std::uint64_t off = 0; off < 4096; off += 64)
        tlb.access(1234 * 4096 + off);
    EXPECT_EQ(tlb.stats().misses, 1u);
}

// --- Sampler properties --------------------------------------------

class LocalityOddBatches : public ::testing::TestWithParam<std::size_t>
{
};

TEST_P(LocalityOddBatches, ExactBatchAndValidIndices)
{
    const std::size_t batch = GetParam();
    replay::LocalityAwareSampler sampler({16, 0});
    Rng rng(batch);
    auto plan = sampler.plan(100000, batch, rng);
    EXPECT_EQ(plan.batchSize(), batch);
    for (auto i : plan.indices)
        EXPECT_LT(i, 100000u);
}

INSTANTIATE_TEST_SUITE_P(Batches, LocalityOddBatches,
                         ::testing::Values(1, 7, 15, 17, 100, 1000,
                                           1023, 1025));

class PerAlphaSweep : public ::testing::TestWithParam<double>
{
};

TEST_P(PerAlphaSweep, HigherPriorityNeverSampledLess)
{
    const double alpha = GetParam();
    replay::PerConfig cfg;
    cfg.capacity = 8;
    cfg.alpha = static_cast<Real>(alpha);
    replay::PrioritizedSampler sampler(cfg);
    std::vector<BufferIndex> ids = {0, 1, 2, 3, 4, 5, 6, 7};
    std::vector<Real> tds = {8, 7, 6, 5, 4, 3, 2, 1};
    sampler.updatePriorities(ids, tds);
    Rng rng(7);
    std::array<int, 8> counts{};
    for (int rep = 0; rep < 400; ++rep) {
        auto plan = sampler.plan(8, 32, rng);
        for (auto i : plan.indices)
            ++counts[i];
    }
    // Monotone priorities -> monotone (within noise) sample counts.
    for (int i = 0; i + 1 < 8; ++i)
        EXPECT_GE(counts[i] + 400, counts[i + 1])
            << "alpha " << alpha << " slot " << i;
    if (alpha > 0) {
        EXPECT_GT(counts[0], counts[7]);
    }
}

INSTANTIATE_TEST_SUITE_P(Alphas, PerAlphaSweep,
                         ::testing::Values(0.0, 0.4, 0.6, 1.0));

// --- Physics properties --------------------------------------------

TEST(PhysicsProperty, MomentumExchangeScalesWithInverseMass)
{
    env::World w;
    env::Agent light, heavy;
    light.movable = heavy.movable = true;
    light.collide = heavy.collide = true;
    light.size = heavy.size = Real(0.1);
    light.mass = Real(1);
    heavy.mass = Real(4);
    light.pos = {0, 0};
    heavy.pos = {0.12f, 0};
    w.agents = {light, heavy};
    w.step();
    // Equal and opposite force => velocity magnitudes scale as 1/m.
    const Real v_light = std::abs(w.agents[0].vel.x);
    const Real v_heavy = std::abs(w.agents[1].vel.x);
    EXPECT_NEAR(v_light / v_heavy, 4.0, 0.05);
}

class DampingSweep : public ::testing::TestWithParam<double>
{
};

TEST_P(DampingSweep, FreeVelocityDecaysGeometrically)
{
    env::WorldConfig cfg;
    cfg.damping = static_cast<Real>(GetParam());
    env::World w(cfg);
    env::Agent a;
    a.movable = true;
    a.collide = false;
    a.vel = {1, 0};
    w.agents.push_back(a);
    for (int t = 1; t <= 5; ++t) {
        w.step();
        EXPECT_NEAR(w.agents[0].vel.x,
                    std::pow(1.0 - GetParam(), t), 1e-4);
    }
}

INSTANTIATE_TEST_SUITE_P(Dampings, DampingSweep,
                         ::testing::Values(0.1, 0.25, 0.5));

// --- Layout equivalence under randomized shapes ---------------------

class ShapeSeeds : public ::testing::TestWithParam<std::uint64_t>
{
};

TEST_P(ShapeSeeds, InterleavedAlwaysMatchesPerAgent)
{
    Rng meta(GetParam());
    const std::size_t agents = 1 + meta.randint(5);
    std::vector<replay::TransitionShape> shapes;
    for (std::size_t a = 0; a < agents; ++a)
        shapes.push_back({1 + meta.randint(40), 1 + meta.randint(8)});

    // The interleaved (record-major) layout: one all-hot shard.
    const BufferIndex capacity = 64;
    replay::MultiAgentBuffer soa(shapes, capacity);
    replay::ShardedStore store(shapes, capacity, {});

    std::vector<std::vector<Real>> obs(agents), act(agents),
        next(agents);
    std::vector<Real> rew(agents);
    std::vector<bool> done(agents);
    for (int t = 0; t < 100; ++t) {
        for (std::size_t a = 0; a < agents; ++a) {
            obs[a].resize(shapes[a].obsDim);
            next[a].resize(shapes[a].obsDim);
            act[a].assign(shapes[a].actDim, Real(0));
            act[a][meta.randint(shapes[a].actDim)] = Real(1);
            for (auto &v : obs[a])
                v = meta.uniformf();
            for (auto &v : next[a])
                v = meta.uniformf();
            rew[a] = meta.uniformf();
            done[a] = meta.uniform() < 0.2;
        }
        soa.append(obs, act, rew, next, done);
        store.append(obs, act, rew, next, done);
    }

    replay::UniformSampler sampler;
    Rng rng(GetParam() + 1);
    auto plan = sampler.plan(soa.size(), 32, rng);
    std::vector<replay::AgentBatch> a_batches, b_batches;
    replay::gatherAllAgents(soa, plan, a_batches);
    store.gatherAll(plan, b_batches);
    for (std::size_t a = 0; a < agents; ++a) {
        EXPECT_EQ(a_batches[a].obs, b_batches[a].obs);
        EXPECT_EQ(a_batches[a].actions, b_batches[a].actions);
        EXPECT_EQ(a_batches[a].rewards, b_batches[a].rewards);
        EXPECT_EQ(a_batches[a].nextObs, b_batches[a].nextObs);
        EXPECT_EQ(a_batches[a].dones, b_batches[a].dones);
    }
}

INSTANTIATE_TEST_SUITE_P(Seeds, ShapeSeeds,
                         ::testing::Values(1, 2, 3, 4, 5, 6, 7, 8));

// --- Optimization descent property ----------------------------------

class DescentShapes
    : public ::testing::TestWithParam<std::pair<int, int>>
{
};

TEST_P(DescentShapes, AdamStepReducesLossFromFreshInit)
{
    const auto [in, out] = GetParam();
    Rng rng(in * 13 + out);
    nn::MlpConfig cfg;
    cfg.inputDim = static_cast<std::size_t>(in);
    cfg.hiddenDims = {16};
    cfg.outputDim = static_cast<std::size_t>(out);
    nn::Mlp net(cfg, rng);
    nn::AdamConfig acfg;
    acfg.lr = Real(1e-3);
    nn::AdamOptimizer opt(net.params(), acfg);

    numeric::Matrix x(16, cfg.inputDim), y(16, cfg.outputDim);
    numeric::fillUniform(x, rng, -1, 1);
    numeric::fillUniform(y, rng, -1, 1);

    numeric::Matrix pred;
    net.forward(x, pred);
    numeric::Matrix g;
    const Real before = nn::mseLoss(pred, y, g);
    net.backward(x, g);
    opt.step();
    net.forward(x, pred);
    const Real after = nn::mseLoss(pred, y, g);
    EXPECT_LT(after, before);
}

INSTANTIATE_TEST_SUITE_P(Shapes, DescentShapes,
                         ::testing::Values(std::make_pair(2, 1),
                                           std::make_pair(8, 3),
                                           std::make_pair(20, 5)));

// --- Softmax relaxation property -------------------------------------

TEST(SoftmaxProperty, GradientsSumToZeroPerRow)
{
    // Softmax outputs are constrained to the simplex, so valid
    // input gradients must have zero row-sum.
    Rng rng(99);
    numeric::Matrix x(6, 5), g(6, 5);
    numeric::fillUniform(x, rng, -2, 2);
    numeric::fillUniform(g, rng, -1, 1);
    numeric::Matrix s = x;
    numeric::softmaxRows(s);
    numeric::Matrix dx;
    numeric::softmaxBackwardRows(s, g, dx);
    for (std::size_t r = 0; r < dx.rows(); ++r) {
        Real sum = 0;
        for (std::size_t c = 0; c < dx.cols(); ++c)
            sum += dx(r, c);
        EXPECT_NEAR(sum, 0.0, 1e-5);
    }
}

} // namespace
} // namespace marlin

/**
 * @file
 * Integration tests: cross-module behaviour — determinism of whole
 * training runs, learning progress on the cooperative task, sampler
 * equivalence through the full trainer, and trace->memsim plumbing.
 */

#include <gtest/gtest.h>

#include <numeric>

#include "marlin/marlin.hh"

namespace marlin
{
namespace
{

std::vector<std::size_t>
dimsOf(const env::Environment &environment)
{
    std::vector<std::size_t> dims;
    for (std::size_t i = 0; i < environment.numAgents(); ++i)
        dims.push_back(environment.obsDim(i));
    return dims;
}

core::TrainConfig
testConfig()
{
    core::TrainConfig c;
    c.batchSize = 64;
    c.bufferCapacity = 8192;
    c.warmupTransitions = 128;
    c.updateEvery = 50;
    c.hiddenDims = {32, 32};
    c.seed = 11;
    return c;
}

TEST(Integration, TrainingIsBitReproducibleUnderFixedSeed)
{
    auto run_once = [] {
        auto environment = env::makeCooperativeNavigationEnv(3, 77);
        auto config = testConfig();
        core::MaddpgTrainer trainer(
            dimsOf(*environment), environment->actionDim(), config,
            [] { return std::make_unique<replay::UniformSampler>(); });
        core::TrainLoop loop(*environment, trainer, config);
        return loop.run(15).episodeRewards;
    };
    const auto a = run_once();
    const auto b = run_once();
    ASSERT_EQ(a.size(), b.size());
    for (std::size_t i = 0; i < a.size(); ++i)
        EXPECT_EQ(a[i], b[i]) << "episode " << i;
}

TEST(Integration, SeedsProduceDifferentTrajectories)
{
    auto run_with_seed = [](std::uint64_t seed) {
        auto environment = env::makeCooperativeNavigationEnv(3, seed);
        auto config = testConfig();
        config.seed = seed;
        core::MaddpgTrainer trainer(
            dimsOf(*environment), environment->actionDim(), config,
            [] { return std::make_unique<replay::UniformSampler>(); });
        core::TrainLoop loop(*environment, trainer, config);
        return loop.run(5).episodeRewards;
    };
    EXPECT_NE(run_with_seed(1), run_with_seed(2));
}

TEST(Integration, MaddpgLearnsCooperativeNavigation)
{
    // A longer run on CN-3 must improve the mean episode reward
    // between the first and last quintile. The margin is loose: the
    // point is "learning happens", not a benchmark.
    auto environment = env::makeCooperativeNavigationEnv(3, 123);
    auto config = testConfig();
    config.epsilonDecayEpisodes = 1000;
    core::MaddpgTrainer trainer(
        dimsOf(*environment), environment->actionDim(), config,
        [] { return std::make_unique<replay::UniformSampler>(); });
    core::TrainLoop loop(*environment, trainer, config);
    auto result = loop.run(2000);

    const std::size_t q = result.episodeRewards.size() / 5;
    const double first =
        std::accumulate(result.episodeRewards.begin(),
                        result.episodeRewards.begin() + q, 0.0) /
        q;
    const double last =
        std::accumulate(result.episodeRewards.end() - q,
                        result.episodeRewards.end(), 0.0) /
        q;
    EXPECT_GT(last, first)
        << "first-quintile mean " << first << " vs last " << last;
}

TEST(Integration, LocalitySamplerTrainsComparably)
{
    // Cache-aware sampling must keep training functional (finite
    // losses, rewards in a sane band) — the paper's Figure 10 claim
    // at smoke-test scale.
    auto environment = env::makeCooperativeNavigationEnv(3, 55);
    auto config = testConfig();
    core::MaddpgTrainer trainer(
        dimsOf(*environment), environment->actionDim(), config, [] {
            return std::make_unique<replay::LocalityAwareSampler>(
                replay::LocalityConfig{16, 4});
        });
    core::TrainLoop loop(*environment, trainer, config);
    auto result = loop.run(60);
    for (Real r : result.episodeRewards)
        ASSERT_TRUE(std::isfinite(r));
    EXPECT_GT(result.updateCalls, 0u);
}

TEST(Integration, InfoPrioritizedTrainsEndToEnd)
{
    auto environment = env::makeCooperativeNavigationEnv(3, 56);
    auto config = testConfig();
    core::MaddpgTrainer trainer(
        dimsOf(*environment), environment->actionDim(), config, [&] {
            replay::PerConfig per;
            per.capacity = config.bufferCapacity;
            return std::make_unique<
                replay::InfoPrioritizedLocalitySampler>(per);
        });
    core::TrainLoop loop(*environment, trainer, config);
    auto result = loop.run(60);
    for (Real r : result.episodeRewards)
        ASSERT_TRUE(std::isfinite(r));
    EXPECT_GT(result.updateCalls, 0u);
}

TEST(Integration, InterleavedBackendMatchesPerAgentNumerics)
{
    // With identical seeds and the same sampler index stream, the
    // interleaved (record-major, one all-hot shard) store must
    // deliver identical batches, hence a bit-identical training
    // trajectory.
    auto run_backend = [](core::SamplingBackend backend) {
        auto environment = env::makeCooperativeNavigationEnv(3, 88);
        auto config = testConfig();
        config.backend = backend;
        core::MaddpgTrainer trainer(
            dimsOf(*environment), environment->actionDim(), config,
            [] { return std::make_unique<replay::UniformSampler>(); });
        core::TrainLoop loop(*environment, trainer, config);
        return loop.run(12).episodeRewards;
    };
    const auto per_agent =
        run_backend(core::SamplingBackend::PerAgent);
    const auto interleaved =
        run_backend(core::SamplingBackend::Sharded);
    ASSERT_EQ(per_agent.size(), interleaved.size());
    for (std::size_t i = 0; i < per_agent.size(); ++i)
        EXPECT_EQ(per_agent[i], interleaved[i]) << "episode " << i;
}

TEST(Integration, GatherTraceFeedsMemsim)
{
    // Wire a real gather's trace into the cache model and check the
    // locality sampler produces fewer simulated misses than uniform
    // on the same buffer — the mechanism behind Figures 4 and 8.
    replay::MultiAgentBuffer buf({{16, 5}}, 1 << 15);
    Rng rng(9);
    std::vector<Real> obs(16), next(16);
    std::vector<Real> act(5, 0);
    act[0] = 1;
    for (int t = 0; t < (1 << 15); ++t) {
        for (auto &v : obs)
            v = static_cast<Real>(rng.uniform(-1, 1));
        next = obs;
        buf.agent(0).add(obs, act, 0, next, false);
    }

    auto measure = [&](replay::Sampler &sampler) {
        Rng srng(10);
        auto preset = memsim::makePlatform(
            memsim::PlatformId::Threadripper3975WX);
        memsim::CacheHierarchy hierarchy(preset.hierarchy);
        replay::AccessTrace trace;
        std::vector<replay::AgentBatch> batches;
        for (int rep = 0; rep < 8; ++rep) {
            auto plan = sampler.plan(buf.size(), 1024, srng);
            replay::gatherAllAgents(buf, plan, batches, &trace);
        }
        auto result = memsim::replayTrace(hierarchy, trace);
        return result.stats.l1.misses;
    };

    replay::UniformSampler uniform;
    replay::LocalityAwareSampler locality({64, 16});
    const auto uniform_misses = measure(uniform);
    const auto locality_misses = measure(locality);
    EXPECT_LT(locality_misses, uniform_misses);
}

TEST(Integration, Matd3TrainsOnPredatorPrey)
{
    auto environment = env::makePredatorPreyEnv(3, 99);
    auto config = testConfig();
    core::Matd3Trainer trainer(
        dimsOf(*environment), environment->actionDim(), config,
        [] { return std::make_unique<replay::UniformSampler>(); });
    core::TrainLoop loop(*environment, trainer, config);
    auto result = loop.run(40);
    for (Real r : result.episodeRewards)
        ASSERT_TRUE(std::isfinite(r));
    EXPECT_GT(result.updateCalls, 0u);
    EXPECT_GT(result.timer.updateAllTrainersSeconds(), 0.0);
}

} // namespace
} // namespace marlin

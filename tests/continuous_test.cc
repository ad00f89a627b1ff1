/**
 * @file
 * Tests for continuous-action control: environment force stepping,
 * tanh actors with OU exploration, trainer updates, and a full
 * continuous training run.
 */

#include <gtest/gtest.h>

#include <cmath>

#include "marlin/core/maddpg.hh"
#include "marlin/core/matd3.hh"
#include "marlin/core/train_loop.hh"
#include "marlin/env/environment.hh"
#include "marlin/replay/uniform_sampler.hh"

namespace marlin::core
{
namespace
{

TrainConfig
continuousConfig()
{
    TrainConfig c;
    c.batchSize = 16;
    c.bufferCapacity = 512;
    c.warmupTransitions = 32;
    c.updateEvery = 20;
    c.hiddenDims = {8, 8};
    c.actionMode = ActionMode::Continuous;
    c.seed = 13;
    return c;
}

SamplerFactory
uniformFactory()
{
    return [] { return std::make_unique<replay::UniformSampler>(); };
}

TEST(ContinuousEnv, ForceMovesAgent)
{
    auto environment = env::makeCooperativeNavigationEnv(3, 1);
    environment->reset();
    const env::Vec2 before = environment->world().agents[0].pos;
    environment->stepContinuous({{1, 0}, {0, 0}, {0, 0}});
    const env::Vec2 after = environment->world().agents[0].pos;
    EXPECT_GT(after.x, before.x);
    EXPECT_NEAR(after.y, before.y, 1e-6);
}

TEST(ContinuousEnv, ForcesAreClamped)
{
    auto environment = env::makeCooperativeNavigationEnv(3, 2);
    environment->reset();
    auto unit = env::makeCooperativeNavigationEnv(3, 2);
    unit->reset();
    environment->stepContinuous({{100, 0}, {0, 0}, {0, 0}});
    unit->stepContinuous({{1, 0}, {0, 0}, {0, 0}});
    EXPECT_FLOAT_EQ(environment->world().agents[0].vel.x,
                    unit->world().agents[0].vel.x);
}

TEST(ContinuousEnv, ScriptedPreyStillMoves)
{
    auto environment = env::makePredatorPreyEnv(3, 3);
    environment->reset();
    const env::Vec2 before = environment->world().agents[3].pos;
    for (int t = 0; t < 5; ++t)
        environment->stepContinuous({{0, 0}, {0, 0}, {0, 0}});
    EXPECT_NE(environment->world().agents[3].pos, before);
}

TEST(ContinuousTrainer, ActionsWithinBox)
{
    MaddpgTrainer trainer({6, 6}, 2, continuousConfig(),
                          uniformFactory());
    std::vector<std::vector<Real>> obs(2, std::vector<Real>(6, 0.1f));
    for (int rep = 0; rep < 20; ++rep) {
        auto actions = trainer.selectContinuousActions(obs, 0);
        ASSERT_EQ(actions.size(), 2u);
        for (const auto &a : actions) {
            EXPECT_GE(a[0], Real(-1));
            EXPECT_LE(a[0], Real(1));
            EXPECT_GE(a[1], Real(-1));
            EXPECT_LE(a[1], Real(1));
        }
    }
}

TEST(ContinuousTrainer, GreedyIsDeterministicAndNoisyIsNot)
{
    MaddpgTrainer trainer({6}, 2, continuousConfig(),
                          uniformFactory());
    std::vector<std::vector<Real>> obs(1, std::vector<Real>(6, 0.4f));
    auto g1 = trainer.greedyContinuousActions(obs);
    auto g2 = trainer.greedyContinuousActions(obs);
    EXPECT_EQ(g1[0], g2[0]);
    auto n1 = trainer.selectContinuousActions(obs, 0);
    auto n2 = trainer.selectContinuousActions(obs, 0);
    EXPECT_NE(n1[0], n2[0]); // OU noise advances.
}

TEST(ContinuousTrainer, DiscreteTrainerPanicsOnContinuousApi)
{
    TrainConfig discrete = continuousConfig();
    discrete.actionMode = ActionMode::Discrete;
    MaddpgTrainer trainer({6}, 5, discrete, uniformFactory());
    std::vector<std::vector<Real>> obs(1, std::vector<Real>(6));
    EXPECT_DEATH(trainer.selectContinuousActions(obs, 0),
                 "built for discrete");
}

TEST(ContinuousTrainer, UpdateMovesActorParameters)
{
    auto config = continuousConfig();
    MaddpgTrainer trainer({6, 6}, 2, config, uniformFactory());
    replay::MultiAgentBuffer buf(trainer.transitionShapes(),
                                 config.bufferCapacity);
    Rng rng(7);
    for (int t = 0; t < 64; ++t) {
        std::vector<std::vector<Real>> obs(2), act(2), next(2);
        std::vector<Real> rew(2);
        std::vector<bool> done(2, false);
        for (int a = 0; a < 2; ++a) {
            obs[a].resize(6);
            next[a].resize(6);
            for (auto &v : obs[a])
                v = static_cast<Real>(rng.uniform(-1, 1));
            next[a] = obs[a];
            act[a] = {static_cast<Real>(rng.uniform(-1, 1)),
                      static_cast<Real>(rng.uniform(-1, 1))};
            rew[a] = static_cast<Real>(rng.uniform(-1, 1));
        }
        buf.append(obs, act, rew, next, done);
    }
    const Real before =
        trainer.networks(0).actor.params()[0]->value(0, 0);
    profile::PhaseTimer timer;
    auto stats = trainer.update(buf, timer);
    EXPECT_NE(trainer.networks(0).actor.params()[0]->value(0, 0),
              before);
    EXPECT_TRUE(std::isfinite(stats.criticLoss));
    EXPECT_TRUE(std::isfinite(stats.actorLoss));
}

TEST(ContinuousTrainer, FullTrainingRunStaysFinite)
{
    auto environment = env::makeCooperativeNavigationEnv(3, 21);
    auto config = continuousConfig();
    std::vector<std::size_t> dims;
    for (std::size_t i = 0; i < environment->numAgents(); ++i)
        dims.push_back(environment->obsDim(i));
    MaddpgTrainer trainer(dims, 2, config, uniformFactory());
    TrainLoop loop(*environment, trainer, config);
    auto result = loop.run(20);
    EXPECT_GT(result.updateCalls, 0u);
    for (Real r : result.episodeRewards)
        ASSERT_TRUE(std::isfinite(r));
}

TEST(ContinuousTrainer, Matd3RunStaysFinite)
{
    auto environment = env::makePredatorPreyEnv(3, 22);
    auto config = continuousConfig();
    std::vector<std::size_t> dims;
    for (std::size_t i = 0; i < environment->numAgents(); ++i)
        dims.push_back(environment->obsDim(i));
    Matd3Trainer trainer(dims, 2, config, uniformFactory());
    TrainLoop loop(*environment, trainer, config);
    auto result = loop.run(20);
    EXPECT_GT(result.updateCalls, 0u);
    for (Real r : result.episodeRewards)
        ASSERT_TRUE(std::isfinite(r));
}

TEST(ContinuousTrainer, DeterministicUnderSeed)
{
    auto run = [] {
        auto environment = env::makeCooperativeNavigationEnv(3, 33);
        auto config = continuousConfig();
        config.seed = 33;
        std::vector<std::size_t> dims;
        for (std::size_t i = 0; i < environment->numAgents(); ++i)
            dims.push_back(environment->obsDim(i));
        MaddpgTrainer trainer(dims, 2, config, uniformFactory());
        TrainLoop loop(*environment, trainer, config);
        return loop.run(10).episodeRewards;
    };
    EXPECT_EQ(run(), run());
}

} // namespace
} // namespace marlin::core

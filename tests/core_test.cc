/**
 * @file
 * Unit tests for marlin/core: agent networks, exploration schedule,
 * trainer mechanics (action selection, target updates, PER wiring,
 * MATD3 policy delay), and the training loop's phase accounting.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <sstream>

#include "marlin/base/thread_pool.hh"
#include "marlin/core/checkpoint.hh"
#include "marlin/core/maddpg.hh"
#include "marlin/core/matd3.hh"
#include "marlin/core/train_loop.hh"
#include "marlin/env/environment.hh"
#include "marlin/numeric/kernels.hh"
#include "marlin/replay/prioritized_sampler.hh"
#include "marlin/replay/sharded_store.hh"
#include "marlin/replay/uniform_sampler.hh"

namespace marlin::core
{
namespace
{

core::SamplerFactory
uniformFactory()
{
    return [] { return std::make_unique<replay::UniformSampler>(); };
}

TrainConfig
tinyConfig()
{
    TrainConfig c;
    c.batchSize = 16;
    c.bufferCapacity = 512;
    c.warmupTransitions = 32;
    c.updateEvery = 20;
    c.hiddenDims = {8, 8};
    c.seed = 3;
    return c;
}

TEST(EpsilonSchedule, LinearDecay)
{
    EpsilonSchedule s(Real(1.0), Real(0.1), 100);
    EXPECT_NEAR(s.value(0), 1.0, 1e-6);
    EXPECT_NEAR(s.value(50), 0.55, 1e-6);
    EXPECT_NEAR(s.value(100), 0.1, 1e-6);
    EXPECT_NEAR(s.value(10000), 0.1, 1e-6);
}

TEST(EpsilonSchedule, ZeroDecayIsConstantEnd)
{
    EpsilonSchedule s(Real(0.5), Real(0.2), 0);
    EXPECT_NEAR(s.value(0), 0.2, 1e-6);
}

TEST(OrnsteinUhlenbeck, MeanRevertsAndResets)
{
    OrnsteinUhlenbeckNoise noise(4);
    Rng rng(1);
    double acc = 0;
    for (int i = 0; i < 5000; ++i) {
        const auto &x = noise.step(rng);
        acc += x[0];
    }
    EXPECT_LT(std::abs(acc / 5000), 0.3); // Hovers around zero.
    noise.reset();
    for (Real v : noise.state())
        EXPECT_EQ(v, Real(0));
}

TEST(AgentNetworks, ShapesAndTargetInit)
{
    Rng rng(2);
    AgentNetworksConfig cfg;
    cfg.obsDim = 10;
    cfg.actDim = 5;
    cfg.jointDim = 40;
    cfg.hiddenDims = {8, 8};
    AgentNetworks nets(cfg, rng);

    Matrix obs(2, 10);
    Matrix logits = nets.actor.forward(obs);
    EXPECT_EQ(logits.cols(), 5u);
    Matrix joint(2, 40);
    EXPECT_EQ(nets.critic.forward(joint).cols(), 1u);
    EXPECT_EQ(nets.critic2, nullptr);

    // Target nets start identical to the online nets.
    Matrix a = nets.actor.forward(obs);
    Matrix ta = nets.targetActor.forward(obs);
    for (std::size_t i = 0; i < a.size(); ++i)
        EXPECT_EQ(a.data()[i], ta.data()[i]);
}

TEST(AgentNetworks, TwinCriticAllocatedForMatd3)
{
    Rng rng(3);
    AgentNetworksConfig cfg;
    cfg.obsDim = 4;
    cfg.actDim = 5;
    cfg.jointDim = 18;
    cfg.twinCritic = true;
    AgentNetworks nets(cfg, rng);
    ASSERT_NE(nets.critic2, nullptr);
    ASSERT_NE(nets.targetCritic2, nullptr);
    Matrix joint(1, 18);
    EXPECT_EQ(nets.critic2->forward(joint).cols(), 1u);
}

TEST(AgentNetworks, SoftUpdateMovesTargets)
{
    Rng rng(4);
    AgentNetworksConfig cfg;
    cfg.obsDim = 4;
    cfg.actDim = 5;
    cfg.jointDim = 18;
    AgentNetworks nets(cfg, rng);
    // Perturb the online actor, then soft-update.
    nets.actor.params()[0]->value(0, 0) += Real(1);
    const Real before = nets.targetActor.params()[0]->value(0, 0);
    nets.softUpdateTargets(Real(0.5));
    const Real after = nets.targetActor.params()[0]->value(0, 0);
    EXPECT_NEAR(after - before, 0.5, 1e-5);
}

TEST(MaddpgTrainer, SelectActionsInRange)
{
    MaddpgTrainer trainer({6, 6, 6}, 5, tinyConfig(),
                          uniformFactory());
    std::vector<std::vector<Real>> obs(3, std::vector<Real>(6, 0.1f));
    for (int rep = 0; rep < 50; ++rep) {
        auto actions = trainer.selectActions(obs, 0);
        ASSERT_EQ(actions.size(), 3u);
        for (int a : actions) {
            EXPECT_GE(a, 0);
            EXPECT_LT(a, 5);
        }
    }
}

TEST(MaddpgTrainer, GreedyActionsDeterministic)
{
    MaddpgTrainer trainer({6, 6}, 5, tinyConfig(), uniformFactory());
    std::vector<std::vector<Real>> obs(2, std::vector<Real>(6, 0.3f));
    auto a = trainer.greedyActions(obs);
    auto b = trainer.greedyActions(obs);
    EXPECT_EQ(a, b);
}

TEST(MaddpgTrainer, TransitionShapesMatchDims)
{
    MaddpgTrainer trainer({7, 9}, 5, tinyConfig(), uniformFactory());
    auto shapes = trainer.transitionShapes();
    ASSERT_EQ(shapes.size(), 2u);
    EXPECT_EQ(shapes[0].obsDim, 7u);
    EXPECT_EQ(shapes[1].obsDim, 9u);
    EXPECT_EQ(shapes[0].actDim, 5u);
}

/** Fill a MultiAgentBuffer with random but consistent transitions. */
void
fillRandom(replay::MultiAgentBuffer &buf, int steps, Rng &rng)
{
    const std::size_t n = buf.numAgents();
    for (int t = 0; t < steps; ++t) {
        std::vector<std::vector<Real>> obs(n), act(n), next(n);
        std::vector<Real> rew(n);
        std::vector<bool> done(n);
        for (std::size_t a = 0; a < n; ++a) {
            const auto &shape = buf.agent(a).shape();
            obs[a].resize(shape.obsDim);
            next[a].resize(shape.obsDim);
            for (auto &v : obs[a])
                v = static_cast<Real>(rng.uniform(-1, 1));
            for (auto &v : next[a])
                v = static_cast<Real>(rng.uniform(-1, 1));
            act[a].assign(shape.actDim, Real(0));
            act[a][rng.randint(shape.actDim)] = Real(1);
            rew[a] = static_cast<Real>(rng.uniform(-1, 1));
            done[a] = false;
        }
        buf.append(obs, act, rew, next, done);
    }
}

TEST(MaddpgTrainer, UpdateChangesParametersAndTimesPhases)
{
    auto config = tinyConfig();
    MaddpgTrainer trainer({6, 6}, 5, config, uniformFactory());
    replay::MultiAgentBuffer buf(trainer.transitionShapes(),
                                 config.bufferCapacity);
    Rng rng(5);
    fillRandom(buf, 64, rng);

    const Real w_before =
        trainer.networks(0).actor.params()[0]->value(0, 0);
    profile::PhaseTimer timer;
    auto stats = trainer.update(buf, timer);
    const Real w_after =
        trainer.networks(0).actor.params()[0]->value(0, 0);

    EXPECT_NE(w_before, w_after);
    EXPECT_TRUE(std::isfinite(stats.criticLoss));
    EXPECT_TRUE(std::isfinite(stats.actorLoss));
    EXPECT_GT(timer.seconds(profile::Phase::Sampling), 0.0);
    EXPECT_GT(timer.seconds(profile::Phase::TargetQ), 0.0);
    EXPECT_GT(timer.seconds(profile::Phase::QPLoss), 0.0);
    EXPECT_EQ(timer.count(profile::Phase::Sampling), 2u); // 2 agents.
    EXPECT_EQ(trainer.updateCount(), 1u);
}

TEST(MaddpgTrainer, PerSamplerReceivesTdErrors)
{
    auto config = tinyConfig();
    replay::PerConfig per;
    per.capacity = config.bufferCapacity;
    std::vector<replay::PrioritizedSampler *> raw;
    auto factory = [&]() -> std::unique_ptr<replay::Sampler> {
        auto s = std::make_unique<replay::PrioritizedSampler>(per);
        raw.push_back(s.get());
        return s;
    };
    MaddpgTrainer trainer({6, 6}, 5, config, factory);
    replay::MultiAgentBuffer buf(trainer.transitionShapes(),
                                 config.bufferCapacity);
    Rng rng(6);
    fillRandom(buf, 64, rng);
    for (BufferIndex i = 0; i < 64; ++i)
        trainer.onTransitionAdded(i);

    // All fresh transitions share the initial max priority == 1.
    ASSERT_EQ(raw.size(), 2u);
    EXPECT_EQ(raw[0]->tree().priorityOf(5), 1.0);

    profile::PhaseTimer timer;
    trainer.update(buf, timer);
    // After the update, TD write-back must have reshaped priorities.
    bool changed = false;
    for (BufferIndex i = 0; i < 64 && !changed; ++i)
        changed = std::abs(raw[0]->tree().priorityOf(i) - 1.0) > 1e-6;
    EXPECT_TRUE(changed);
}

TEST(Matd3Trainer, DelayedPolicyUpdates)
{
    auto config = tinyConfig();
    config.policyDelay = 2;
    Matd3Trainer trainer({6, 6}, 5, config, uniformFactory());
    replay::MultiAgentBuffer buf(trainer.transitionShapes(),
                                 config.bufferCapacity);
    Rng rng(7);
    fillRandom(buf, 64, rng);

    const Real actor_before =
        trainer.networks(0).actor.params()[0]->value(0, 0);
    const Real critic_before =
        trainer.networks(0).critic.params()[0]->value(0, 0);

    profile::PhaseTimer timer;
    trainer.update(buf, timer); // Critic step 1: no actor.
    EXPECT_EQ(trainer.networks(0).actor.params()[0]->value(0, 0),
              actor_before);
    EXPECT_NE(trainer.networks(0).critic.params()[0]->value(0, 0),
              critic_before);

    trainer.update(buf, timer); // Critic step 2: actor moves.
    EXPECT_NE(trainer.networks(0).actor.params()[0]->value(0, 0),
              actor_before);
}

TEST(Matd3Trainer, TwinCriticsDiverge)
{
    auto config = tinyConfig();
    Matd3Trainer trainer({6}, 5, config, uniformFactory());
    auto &net = trainer.networks(0);
    ASSERT_NE(net.critic2, nullptr);
    // Independently initialized twins must differ.
    EXPECT_NE(net.critic.params()[0]->value(0, 0),
              net.critic2->params()[0]->value(0, 0));
}

/** Gather every valid slot of @p store in logical order. */
std::vector<replay::AgentBatch>
gatherEverything(const replay::ReplayStore &store)
{
    replay::IndexPlan plan;
    for (BufferIndex i = 0; i < store.size(); ++i)
        plan.indices.push_back(i);
    std::vector<replay::AgentBatch> out;
    store.gatherAll(plan, out);
    return out;
}

TEST(TrainLoop, InterleavedBackendMirrorsBuffer)
{
    // The interleaved (Section IV-B2) layout is the sharded backend
    // with its default knobs — one shard, no cold tier — and it must
    // end a run holding exactly what the per-agent rings hold.
    auto run_backend = [](SamplingBackend backend,
                          std::vector<replay::AgentBatch> &contents) {
        auto environment = env::makeCooperativeNavigationEnv(3, 21);
        std::vector<std::size_t> dims;
        for (std::size_t i = 0; i < environment->numAgents(); ++i)
            dims.push_back(environment->obsDim(i));
        auto config = tinyConfig();
        config.backend = backend;
        MaddpgTrainer trainer(dims, environment->actionDim(), config,
                              uniformFactory());
        TrainLoop loop(*environment, trainer, config);
        const auto result = loop.run(10);
        EXPECT_GT(result.updateCalls, 0u);
        EXPECT_EQ(loop.replayStore().size(), result.envSteps);
        contents = gatherEverything(loop.replayStore());
        return std::string(loop.replayStore().backendName());
    };
    std::vector<replay::AgentBatch> per_agent, interleaved;
    EXPECT_EQ(run_backend(SamplingBackend::PerAgent, per_agent),
              "per_agent");
    EXPECT_EQ(run_backend(SamplingBackend::Sharded, interleaved),
              "sharded");
    ASSERT_EQ(per_agent.size(), interleaved.size());
    for (std::size_t a = 0; a < per_agent.size(); ++a) {
        EXPECT_EQ(per_agent[a].obs, interleaved[a].obs);
        EXPECT_EQ(per_agent[a].actions, interleaved[a].actions);
        EXPECT_EQ(per_agent[a].rewards, interleaved[a].rewards);
        EXPECT_EQ(per_agent[a].nextObs, interleaved[a].nextObs);
        EXPECT_EQ(per_agent[a].dones, interleaved[a].dones);
    }

    TrainConfig config = tinyConfig();
    config.backend = SamplingBackend::Sharded;
    const auto store = makeReplayStore(config, {{4, 5}, {6, 5}});
    const auto *sharded =
        dynamic_cast<const replay::ShardedStore *>(store.get());
    ASSERT_NE(sharded, nullptr);
    EXPECT_EQ(sharded->shardCount(), 1u);
    EXPECT_FALSE(sharded->coldEnabled());
}

TEST(TrainLoop, EnvStepsMatchEpisodeLength)
{
    auto environment = env::makeCooperativeNavigationEnv(3, 22);
    std::vector<std::size_t> dims;
    for (std::size_t i = 0; i < environment->numAgents(); ++i)
        dims.push_back(environment->obsDim(i));
    auto config = tinyConfig();
    config.maxEpisodeLength = 7;
    MaddpgTrainer trainer(dims, environment->actionDim(), config,
                          uniformFactory());
    TrainLoop loop(*environment, trainer, config);
    auto result = loop.run(5);
    EXPECT_EQ(result.envSteps, 35u);
    EXPECT_EQ(result.episodeRewards.size(), 5u);
}

TEST(TrainLoop, CallbackInvokedPerEpisode)
{
    auto environment = env::makeCooperativeNavigationEnv(3, 23);
    std::vector<std::size_t> dims;
    for (std::size_t i = 0; i < environment->numAgents(); ++i)
        dims.push_back(environment->obsDim(i));
    auto config = tinyConfig();
    MaddpgTrainer trainer(dims, environment->actionDim(), config,
                          uniformFactory());
    TrainLoop loop(*environment, trainer, config);
    std::size_t calls = 0;
    loop.run(4, [&](const EpisodeInfo &info) {
        EXPECT_EQ(info.episode, calls);
        ++calls;
    });
    EXPECT_EQ(calls, 4u);
}

/**
 * Run a short training session with the global pool at @p threads
 * and return the full serialized trainer state (weights, targets,
 * Adam moments) for bit-exact comparison.
 */
template <typename TrainerT>
std::string
trainSerialized(std::size_t threads)
{
    base::ThreadPool::setGlobalThreads(threads);
    auto environment = env::makePredatorPreyEnv(3, 77);
    std::vector<std::size_t> dims;
    for (std::size_t i = 0; i < environment->numAgents(); ++i)
        dims.push_back(environment->obsDim(i));
    auto config = tinyConfig();
    // Big enough batch and hidden layers that the GEMMs cross the
    // parallel FLOP threshold, so this exercises pool-partitioned
    // kernels inside pool-parallel agent updates (nested dispatch).
    config.batchSize = 64;
    config.warmupTransitions = 64;
    config.hiddenDims = {64, 64};
    config.updateEvery = 20;
    TrainerT trainer(dims, environment->actionDim(), config,
                     uniformFactory());
    TrainLoop loop(*environment, trainer, config);
    loop.run(4);
    std::ostringstream os;
    RunState state;
    state.trainer = &trainer;
    saveRun(os, state);
    base::ThreadPool::setGlobalThreads(0); // Restore auto sizing.
    return os.str();
}

TEST(Determinism, MaddpgWeightsBitIdenticalAcrossThreadCounts)
{
    const std::string one = trainSerialized<MaddpgTrainer>(1);
    const std::string four = trainSerialized<MaddpgTrainer>(4);
    ASSERT_EQ(one.size(), four.size());
    EXPECT_TRUE(one == four)
        << "parallel agent updates diverged from the serial path";
}

TEST(Determinism, Matd3WeightsBitIdenticalAcrossThreadCounts)
{
    const std::string one = trainSerialized<Matd3Trainer>(1);
    const std::string four = trainSerialized<Matd3Trainer>(4);
    ASSERT_EQ(one.size(), four.size());
    EXPECT_TRUE(one == four)
        << "per-agent RNG streams should decouple MATD3's target "
           "noise from pool scheduling";
}

/**
 * The kernel ISA contract end to end: a scalar run on one thread and
 * an AVX2 run on four must leave byte-identical trainer state.
 */
template <typename TrainerT>
void
expectBitIdenticalAcrossIsas()
{
    using numeric::kernels::Isa;
    if (!numeric::kernels::isaAvailable(Isa::Avx2))
        GTEST_SKIP() << "AVX2 kernels unavailable on this host";
    std::string scalar, avx2;
    {
        numeric::kernels::ScopedIsa pin(Isa::Scalar);
        scalar = trainSerialized<TrainerT>(1);
    }
    {
        numeric::kernels::ScopedIsa pin(Isa::Avx2);
        avx2 = trainSerialized<TrainerT>(4);
    }
    ASSERT_EQ(scalar.size(), avx2.size());
    EXPECT_TRUE(scalar == avx2)
        << "scalar (1 thread) and AVX2 (4 threads) training diverged";
}

TEST(Determinism, MaddpgWeightsBitIdenticalAcrossIsas)
{
    expectBitIdenticalAcrossIsas<MaddpgTrainer>();
}

TEST(Determinism, Matd3WeightsBitIdenticalAcrossIsas)
{
    expectBitIdenticalAcrossIsas<Matd3Trainer>();
}

} // namespace
} // namespace marlin::core

/**
 * @file
 * Failure-injection tests: every misuse MARLIN_ASSERT guards
 * against must die loudly instead of corrupting state. These death
 * tests pin the library's precondition contract.
 */

#include <gtest/gtest.h>

#include <sstream>

#include "marlin/base/serialize.hh"
#include "marlin/core/checkpoint.hh"
#include "marlin/core/maddpg.hh"
#include "marlin/core/matd3.hh"
#include "marlin/core/train_loop.hh"
#include "marlin/env/environment.hh"
#include "marlin/memsim/cache.hh"
#include "marlin/nn/loss.hh"
#include "marlin/nn/mlp.hh"
#include "marlin/numeric/gemm.hh"
#include "marlin/numeric/ops.hh"
#include "marlin/replay/gather.hh"
#include "marlin/replay/locality_sampler.hh"
#include "marlin/replay/sum_tree.hh"
#include "marlin/replay/uniform_sampler.hh"

namespace marlin
{
namespace
{

TEST(FailureDeath, GatherIndexBeyondValidTransitions)
{
    replay::ReplayBuffer buf({3, 5}, 16);
    std::vector<Real> obs(3), next(3);
    std::vector<Real> act(5, 0);
    buf.add(obs, act, 0, next, false);
    replay::IndexPlan plan;
    plan.indices = {5}; // Only slot 0 is valid.
    replay::AgentBatch batch;
    EXPECT_DEATH(gatherAgentBatch(buf, plan, batch),
                 "gather index beyond valid");
}

TEST(FailureDeath, ReplayAddDimensionMismatch)
{
    replay::ReplayBuffer buf({3, 5}, 16);
    std::vector<Real> wrong_obs(7), next(3);
    std::vector<Real> act(5, 0);
    EXPECT_DEATH(buf.add(wrong_obs, act, 0, next, false),
                 "observation size mismatch");
}

TEST(FailureDeath, SamplingFromEmptyBuffer)
{
    replay::UniformSampler sampler;
    Rng rng(1);
    EXPECT_DEATH(sampler.plan(0, 16, rng), "empty");
}

TEST(FailureDeath, SumTreeIndexOutOfRange)
{
    replay::SumTree tree(8);
    EXPECT_DEATH(tree.set(8, 1.0), "out of range");
}

TEST(FailureDeath, SumTreeNegativePriority)
{
    replay::SumTree tree(8);
    EXPECT_DEATH(tree.set(0, -1.0), "non-negative");
}

TEST(FailureDeath, SumTreeFindOnEmptyTree)
{
    replay::SumTree tree(8);
    EXPECT_DEATH(tree.find(0.5), "empty sum tree");
}

TEST(FailureDeath, HconcatRowMismatch)
{
    numeric::Matrix a(2, 3), b(3, 3), out;
    EXPECT_DEATH(numeric::hconcatInto({&a, &b}, out), "row mismatch");
}

TEST(FailureDeath, GemmInnerDimensionMismatch)
{
    numeric::Matrix a(2, 3), b(4, 2), c;
    EXPECT_DEATH(numeric::gemm(a, b, c), "inner dimension");
}

TEST(FailureDeath, MlpForwardWrongInputWidth)
{
    Rng rng(1);
    nn::MlpConfig cfg;
    cfg.inputDim = 4;
    cfg.hiddenDims = {4};
    cfg.outputDim = 2;
    nn::Mlp net(cfg, rng);
    numeric::Matrix x(1, 5), y;
    EXPECT_DEATH(net.forward(x, y), "input dimension mismatch");
}

TEST(FailureDeath, EnvironmentWrongActionCount)
{
    auto environment = env::makeCooperativeNavigationEnv(3, 1);
    std::vector<std::vector<Real>> obs;
    environment->resetInto(obs);
    env::StepResult step;
    EXPECT_DEATH(environment->stepInto({1, 2}, step), "one action per");
}

TEST(FailureDeath, EnvironmentActionOutOfRange)
{
    auto environment = env::makeCooperativeNavigationEnv(3, 1);
    std::vector<std::vector<Real>> obs;
    environment->resetInto(obs);
    env::StepResult step;
    EXPECT_DEATH(environment->stepInto({1, 2, 9}, step),
                 "action out of range");
}

TEST(FailureDeath, TrainerObservationCountMismatch)
{
    core::TrainConfig config;
    config.hiddenDims = {4};
    core::MaddpgTrainer trainer(
        {6, 6}, 5, config,
        [] { return std::make_unique<replay::UniformSampler>(); });
    std::vector<std::vector<Real>> obs(1, std::vector<Real>(6));
    std::vector<int> actions;
    EXPECT_DEATH(trainer.selectActionsInto(obs, 0, actions),
                 "one observation per agent");
}

TEST(FailureDeath, CacheLineSizeMustBePowerOfTwo)
{
    EXPECT_DEATH(memsim::CacheModel({1024, 48, 2}), "power of two");
}

TEST(FailureDeath, CacheSmallerThanOneSet)
{
    EXPECT_DEATH(memsim::CacheModel({64, 64, 4}),
                 "smaller than one set");
}

// --- Checkpoint corruption taxonomy: every rejected file maps to a
// --- specific CkptError instead of an abort or silent garbage.

namespace
{

core::TrainConfig
tinyConfig()
{
    core::TrainConfig config;
    config.hiddenDims = {4};
    config.bufferCapacity = 256;
    return config;
}

std::string
savedTrainerImage(core::CtdeTrainerBase &trainer)
{
    std::ostringstream os;
    core::RunState state;
    state.trainer = &trainer;
    core::saveRun(os, state);
    return os.str();
}

} // namespace

TEST(FailureCheckpoint, CrcMismatchDetected)
{
    core::MaddpgTrainer trainer(
        {6, 6}, 5, tinyConfig(),
        [] { return std::make_unique<replay::UniformSampler>(); });
    std::string image = savedTrainerImage(trainer);
    // Flip one bit deep inside the network section's payload.
    image[image.size() / 2] ^= 0x01;

    std::istringstream is(image);
    core::RunState state;
    state.trainer = &trainer;
    const auto r = core::loadRun(is, state);
    ASSERT_FALSE(r);
    EXPECT_EQ(r.error, core::CkptError::CrcMismatch);
}

TEST(FailureCheckpoint, TruncatedMidSection)
{
    core::MaddpgTrainer trainer(
        {6, 6}, 5, tinyConfig(),
        [] { return std::make_unique<replay::UniformSampler>(); });
    const std::string image = savedTrainerImage(trainer);

    std::istringstream is(image.substr(0, image.size() - 7));
    core::RunState state;
    state.trainer = &trainer;
    const auto r = core::loadRun(is, state);
    ASSERT_FALSE(r);
    EXPECT_EQ(r.error, core::CkptError::Truncated);
}

TEST(FailureCheckpoint, FutureVersionRejected)
{
    std::ostringstream os;
    writeHeader(os, core::checkpointMagic,
                core::checkpointVersion + 1);

    core::MaddpgTrainer trainer(
        {6, 6}, 5, tinyConfig(),
        [] { return std::make_unique<replay::UniformSampler>(); });
    std::istringstream is(os.str());
    core::RunState state;
    state.trainer = &trainer;
    const auto r = core::loadRun(is, state);
    ASSERT_FALSE(r);
    EXPECT_EQ(r.error, core::CkptError::BadVersion);
}

TEST(FailureCheckpoint, BadMagicRejected)
{
    core::MaddpgTrainer trainer(
        {6, 6}, 5, tinyConfig(),
        [] { return std::make_unique<replay::UniformSampler>(); });
    std::istringstream is("this is not a checkpoint file at all");
    core::RunState state;
    state.trainer = &trainer;
    const auto r = core::loadRun(is, state);
    ASSERT_FALSE(r);
    EXPECT_EQ(r.error, core::CkptError::BadMagic);
}

TEST(FailureCheckpoint, AlgorithmMismatchRejected)
{
    auto factory = [] {
        return std::make_unique<replay::UniformSampler>();
    };
    core::MaddpgTrainer writer({6, 6}, 5, tinyConfig(), factory);
    const std::string image = savedTrainerImage(writer);

    core::Matd3Trainer reader({6, 6}, 5, tinyConfig(), factory);
    std::istringstream is(image);
    core::RunState state;
    state.trainer = &reader;
    const auto r = core::loadRun(is, state);
    ASSERT_FALSE(r);
    EXPECT_EQ(r.error, core::CkptError::AlgoMismatch);
}

TEST(FailureCheckpoint, MissingFileIsNotFound)
{
    core::MaddpgTrainer trainer(
        {6, 6}, 5, tinyConfig(),
        [] { return std::make_unique<replay::UniformSampler>(); });
    core::RunState state;
    state.trainer = &trainer;
    const auto r =
        core::loadRunFile("/nonexistent/dir/nope.ckpt", state);
    ASSERT_FALSE(r);
    EXPECT_EQ(r.error, core::CkptError::NotFound);
}

TEST(FailureDeath, SerializeAbsurdVectorLength)
{
    std::ostringstream os;
    writePod<std::uint64_t>(os, 1ull << 60); // Claims 2^60 elements.
    std::istringstream is(os.str());
    EXPECT_DEATH(readVector<Real>(is), "length prefix");
}

TEST(FailureDeath, SerializeAbsurdStringLength)
{
    std::ostringstream os;
    writePod<std::uint64_t>(os, 1ull << 60);
    std::istringstream is(os.str());
    EXPECT_DEATH(readString(is), "length prefix");
}

TEST(FailureDeath, RollbackWithoutCheckpointDir)
{
    auto environment = env::makeCooperativeNavigationEnv(3, 1);
    core::TrainConfig config = tinyConfig();
    config.healthPolicy = core::HealthGuardPolicy::Rollback;
    std::vector<std::size_t> dims;
    for (std::size_t i = 0; i < environment->numAgents(); ++i)
        dims.push_back(environment->obsDim(i));
    core::MaddpgTrainer trainer(
        dims, environment->actionDim(), config,
        [] { return std::make_unique<replay::UniformSampler>(); });
    core::TrainLoop loop(*environment, trainer, config);
    EXPECT_DEATH(loop.run(1), "requires a checkpoint");
}

TEST(FailureDeath, WeightedMseWrongWeightCount)
{
    numeric::Matrix pred(4, 1), target(4, 1), grad;
    std::vector<Real> weights(3, Real(1));
    EXPECT_DEATH(nn::weightedMseLoss(pred, target, weights, grad),
                 "one importance weight per batch row");
}

} // namespace
} // namespace marlin

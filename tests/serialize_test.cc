/**
 * @file
 * Tests for binary serialization and trainer checkpointing: value
 * round trips, header validation, resume-equivalence, and failure
 * injection (truncated / mismatched checkpoints must die cleanly).
 */

#include <gtest/gtest.h>

#include <sstream>

#include "marlin/base/serialize.hh"
#include "marlin/core/checkpoint.hh"
#include "marlin/core/matd3.hh"
#include "marlin/nn/loss.hh"
#include "marlin/nn/serialize.hh"
#include "marlin/numeric/ops.hh"
#include "marlin/replay/uniform_sampler.hh"

namespace marlin
{
namespace
{

TEST(Serialize, PodRoundTrip)
{
    std::stringstream ss;
    writePod<std::uint32_t>(ss, 0xdeadbeef);
    writePod<double>(ss, 3.25);
    EXPECT_EQ(readPod<std::uint32_t>(ss), 0xdeadbeefu);
    EXPECT_EQ(readPod<double>(ss), 3.25);
}

TEST(Serialize, VectorRoundTrip)
{
    std::stringstream ss;
    std::vector<float> v = {1.5f, -2.0f, 0.0f};
    writeVector(ss, v);
    EXPECT_EQ(readVector<float>(ss), v);
}

TEST(Serialize, EmptyVectorRoundTrip)
{
    std::stringstream ss;
    writeVector(ss, std::vector<int>{});
    EXPECT_TRUE(readVector<int>(ss).empty());
}

TEST(Serialize, StringRoundTrip)
{
    std::stringstream ss;
    writeString(ss, "hello marl");
    writeString(ss, "");
    EXPECT_EQ(readString(ss), "hello marl");
    EXPECT_EQ(readString(ss), "");
}

TEST(Serialize, HeaderRoundTrip)
{
    std::stringstream ss;
    writeHeader(ss, 0x4d41524c, 3);
    EXPECT_EQ(readHeader(ss, 0x4d41524c, 5), 3u);
}

TEST(SerializeDeath, BadMagicDies)
{
    std::stringstream ss;
    writeHeader(ss, 0x11111111, 1);
    EXPECT_EXIT(readHeader(ss, 0x22222222, 1),
                ::testing::ExitedWithCode(1), "bad checkpoint magic");
}

TEST(SerializeDeath, FutureVersionDies)
{
    std::stringstream ss;
    writeHeader(ss, 0x4d41524c, 9);
    EXPECT_EXIT(readHeader(ss, 0x4d41524c, 1),
                ::testing::ExitedWithCode(1), "newer than supported");
}

TEST(SerializeDeath, TruncatedPodDies)
{
    std::stringstream ss;
    ss.write("xy", 2); // Not enough for a uint64.
    EXPECT_EXIT(readPod<std::uint64_t>(ss),
                ::testing::ExitedWithCode(1), "truncated");
}

TEST(NnSerialize, MatrixRoundTrip)
{
    Rng rng(1);
    numeric::Matrix m(4, 7);
    numeric::fillUniform(m, rng, -2, 2);
    std::stringstream ss;
    nn::saveMatrix(ss, m);
    EXPECT_EQ(nn::loadMatrix(ss), m);
}

TEST(NnSerialize, MlpRoundTripPreservesOutputs)
{
    Rng rng(2);
    nn::MlpConfig cfg;
    cfg.inputDim = 5;
    cfg.hiddenDims = {8, 8};
    cfg.outputDim = 3;
    nn::Mlp a(cfg, rng);
    nn::Mlp b(cfg, rng); // Different init.

    std::stringstream ss;
    nn::saveMlp(ss, a);
    nn::loadMlp(ss, b);

    numeric::Matrix x(4, 5);
    numeric::fillUniform(x, rng, -1, 1);
    EXPECT_EQ(a.forward(x), b.forward(x));
}

TEST(NnSerializeDeath, ShapeMismatchDies)
{
    Rng rng(3);
    nn::MlpConfig small_cfg;
    small_cfg.inputDim = 4;
    small_cfg.hiddenDims = {4};
    small_cfg.outputDim = 2;
    nn::Mlp small(small_cfg, rng);

    nn::MlpConfig big_cfg = small_cfg;
    big_cfg.inputDim = 6;
    nn::Mlp big(big_cfg, rng);

    std::stringstream ss;
    nn::saveMlp(ss, small);
    EXPECT_EXIT(nn::loadMlp(ss, big), ::testing::ExitedWithCode(1),
                "does not match");
}

TEST(NnSerialize, AdamRoundTripResumesIdentically)
{
    // Two identical nets + optimizers; train one for 5 steps, save,
    // restore into the second, then both must evolve identically.
    Rng rng(4);
    nn::MlpConfig cfg;
    cfg.inputDim = 3;
    cfg.hiddenDims = {6};
    cfg.outputDim = 1;
    nn::Mlp net_a(cfg, rng);
    nn::Mlp net_b(cfg, rng);
    nn::AdamOptimizer opt_a(net_a.params());
    nn::AdamOptimizer opt_b(net_b.params());

    numeric::Matrix x(8, 3), y(8, 1);
    numeric::fillUniform(x, rng, -1, 1);
    numeric::fillUniform(y, rng, -1, 1);
    auto step = [&](nn::Mlp &net, nn::AdamOptimizer &opt) {
        numeric::Matrix pred = net.forward(x);
        numeric::Matrix g;
        nn::mseLoss(pred, y, g);
        net.backward(x, g);
        opt.step();
    };
    for (int i = 0; i < 5; ++i)
        step(net_a, opt_a);

    std::stringstream ss;
    nn::saveMlp(ss, net_a);
    nn::saveAdam(ss, opt_a);
    nn::loadMlp(ss, net_b);
    nn::loadAdam(ss, opt_b);
    EXPECT_EQ(opt_b.stepCount(), 5u);

    for (int i = 0; i < 3; ++i) {
        step(net_a, opt_a);
        step(net_b, opt_b);
    }
    EXPECT_EQ(net_a.forward(x), net_b.forward(x));
}

core::TrainConfig
tinyConfig()
{
    core::TrainConfig c;
    c.batchSize = 16;
    c.bufferCapacity = 256;
    c.hiddenDims = {8, 8};
    c.seed = 9;
    return c;
}

core::SamplerFactory
uniformFactory()
{
    return [] { return std::make_unique<replay::UniformSampler>(); };
}

/** Round-trip @p from's trainer-only checkpoint into @p to. */
void
copyTrainer(core::CtdeTrainerBase &from, core::CtdeTrainerBase &to)
{
    std::stringstream ss;
    core::RunState save_state;
    save_state.trainer = &from;
    core::saveRun(ss, save_state);
    core::RunState load_state;
    load_state.trainer = &to;
    const core::CkptResult r = core::loadRun(ss, load_state);
    ASSERT_TRUE(r) << r.detail;
}

TEST(Checkpoint, MaddpgRoundTripPreservesPolicies)
{
    core::MaddpgTrainer a({6, 7}, 5, tinyConfig(), uniformFactory());
    core::TrainConfig other = tinyConfig();
    other.seed = 99; // Different init.
    core::MaddpgTrainer b({6, 7}, 5, other, uniformFactory());

    copyTrainer(a, b);

    std::vector<std::vector<Real>> obs = {
        std::vector<Real>(6, Real(0.2)),
        std::vector<Real>(7, Real(-0.3))};
    EXPECT_EQ(a.greedyActions(obs), b.greedyActions(obs));
    // Deep check: actor outputs identical, not just argmax.
    numeric::Matrix x(1, 6, std::vector<Real>(6, Real(0.2)));
    EXPECT_EQ(a.networks(0).actor.forward(x),
              b.networks(0).actor.forward(x));
}

TEST(Checkpoint, Matd3RoundTripIncludesTwinCritics)
{
    core::Matd3Trainer a({5}, 5, tinyConfig(), uniformFactory());
    core::TrainConfig other = tinyConfig();
    other.seed = 31;
    core::Matd3Trainer b({5}, 5, other, uniformFactory());

    copyTrainer(a, b);

    numeric::Matrix joint(2, 10); // obs 5 + one-hot action 5.
    Rng rng(5);
    numeric::fillUniform(joint, rng, -1, 1);
    EXPECT_EQ(a.networks(0).critic2->forward(joint),
              b.networks(0).critic2->forward(joint));
    EXPECT_EQ(a.networks(0).targetCritic2->forward(joint),
              b.networks(0).targetCritic2->forward(joint));
}

} // namespace
} // namespace marlin

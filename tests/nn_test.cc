/**
 * @file
 * Unit tests for marlin/nn: layers, MLP backprop (checked against
 * finite differences), Adam, losses, and target-network updates.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <cstring>

#include "marlin/nn/adam.hh"
#include "marlin/nn/grad_check.hh"
#include "marlin/nn/loss.hh"
#include "marlin/nn/mlp.hh"
#include "marlin/numeric/kernels.hh"
#include "marlin/numeric/ops.hh"

namespace marlin::nn
{
namespace
{

using numeric::fillUniform;

TEST(Linear, ForwardComputesXWPlusB)
{
    Rng rng(1);
    Linear lin(2, 3, rng);
    lin.weight.value = Matrix{{1, 2, 3}, {4, 5, 6}};
    lin.bias.value = Matrix{{10, 20, 30}};
    Matrix x{{1, 1}, {2, 0}};
    Matrix y;
    lin.forward(x, y);
    EXPECT_EQ(y(0, 0), Real(15)); // 1+4+10
    EXPECT_EQ(y(0, 2), Real(39)); // 3+6+30
    EXPECT_EQ(y(1, 0), Real(12)); // 2+10
}

TEST(Linear, BackwardShapes)
{
    Rng rng(2);
    Linear lin(4, 3, rng);
    Matrix x(5, 4), y, gy(5, 3), gx;
    fillUniform(x, rng, -1, 1);
    fillUniform(gy, rng, -1, 1);
    lin.forward(x, y);
    lin.backwardParams(gy);
    lin.backwardInput(gy, gx);
    EXPECT_EQ(gx.rows(), 5u);
    EXPECT_EQ(gx.cols(), 4u);
    EXPECT_EQ(lin.weight.grad.rows(), 4u);
    EXPECT_EQ(lin.weight.grad.cols(), 3u);
    EXPECT_EQ(lin.bias.grad.cols(), 3u);
}

TEST(Linear, InitializationBounds)
{
    Rng rng(3);
    Linear lin(16, 8, rng);
    const Real bound = Real(1) / std::sqrt(Real(16));
    for (std::size_t i = 0; i < lin.weight.value.size(); ++i) {
        EXPECT_LE(std::abs(lin.weight.value.data()[i]), bound);
    }
}

TEST(Activation, ReluForwardBackward)
{
    ActivationLayer relu(Activation::ReLU);
    Matrix x{{-1, 0, 2}};
    Matrix y;
    relu.forward(x, y);
    EXPECT_EQ(y(0, 0), Real(0));
    EXPECT_EQ(y(0, 2), Real(2));
    Matrix gy{{1, 1, 1}}, gx;
    relu.backward(gy, gx);
    EXPECT_EQ(gx(0, 0), Real(0));
    EXPECT_EQ(gx(0, 1), Real(0)); // relu'(0) = 0 by convention
    EXPECT_EQ(gx(0, 2), Real(1));
}

TEST(Activation, TanhForwardBackward)
{
    ActivationLayer t(Activation::Tanh);
    Matrix x{{0, 1}};
    Matrix y;
    t.forward(x, y);
    EXPECT_NEAR(y(0, 0), 0.0, 1e-6);
    EXPECT_NEAR(y(0, 1), std::tanh(1.0), 1e-6);
    Matrix gy{{1, 1}}, gx;
    t.backward(gy, gx);
    EXPECT_NEAR(gx(0, 0), 1.0, 1e-6); // 1 - tanh(0)^2
    const double th = std::tanh(1.0);
    EXPECT_NEAR(gx(0, 1), 1.0 - th * th, 1e-5);
}

TEST(Activation, FromString)
{
    EXPECT_EQ(activationFromString("relu"), Activation::ReLU);
    EXPECT_EQ(activationFromString("tanh"), Activation::Tanh);
    EXPECT_EQ(activationFromString("identity"), Activation::Identity);
    EXPECT_STREQ(activationName(Activation::ReLU), "relu");
}

MlpConfig
smallConfig(std::size_t in, std::size_t out,
            Activation out_act = Activation::Identity)
{
    MlpConfig c;
    c.inputDim = in;
    c.hiddenDims = {8, 8};
    c.outputDim = out;
    c.outputActivation = out_act;
    return c;
}

TEST(Mlp, OutputShape)
{
    Rng rng(5);
    Mlp net(smallConfig(6, 3), rng);
    Matrix x(10, 6);
    fillUniform(x, rng, -1, 1);
    Matrix y = net.forward(x);
    EXPECT_EQ(y.rows(), 10u);
    EXPECT_EQ(y.cols(), 3u);
}

TEST(Mlp, ParamCount)
{
    Rng rng(6);
    Mlp net(smallConfig(6, 3), rng);
    // (6*8+8) + (8*8+8) + (8*3+3) = 56+72+27 = 155.
    EXPECT_EQ(net.paramCount(), 155u);
    EXPECT_EQ(net.params().size(), 6u);
}

class MlpGradCheck
    : public ::testing::TestWithParam<std::tuple<int, int, Activation>>
{
};

// ReLU kinks make finite differences locally unreliable in single
// precision, so the ReLU-hidden suite bounds the *absolute* error;
// the smooth (tanh-hidden) suite below bounds the relative error.
TEST_P(MlpGradCheck, ParameterGradientsMatchFiniteDifference)
{
    const auto [in, out, act] = GetParam();
    Rng rng(in * 100 + out);
    Mlp net(smallConfig(in, out, act), rng);
    Matrix x(4, in), target(4, out);
    fillUniform(x, rng, -1, 1);
    fillUniform(target, rng, -1, 1);
    auto res = checkMlpGradients(net, x, target, Real(1e-2));
    EXPECT_GT(res.checked, 0u);
    EXPECT_LT(res.maxAbsError, 0.02);
}

TEST_P(MlpGradCheck, InputGradientsMatchFiniteDifference)
{
    const auto [in, out, act] = GetParam();
    Rng rng(in * 31 + out * 7);
    Mlp net(smallConfig(in, out, act), rng);
    Matrix x(3, in), target(3, out);
    fillUniform(x, rng, -1, 1);
    fillUniform(target, rng, -1, 1);
    auto res = checkInputGradients(net, x, target, Real(1e-2));
    EXPECT_GT(res.checked, 0u);
    EXPECT_LT(res.maxAbsError, 0.02);
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, MlpGradCheck,
    ::testing::Values(
        std::make_tuple(3, 1, Activation::Identity),
        std::make_tuple(5, 4, Activation::Identity),
        std::make_tuple(8, 2, Activation::Tanh),
        std::make_tuple(16, 5, Activation::Identity)));

class SmoothMlpGradCheck
    : public ::testing::TestWithParam<std::pair<int, int>>
{
};

TEST_P(SmoothMlpGradCheck, RelativeErrorTightForSmoothNetwork)
{
    const auto [in, out] = GetParam();
    Rng rng(in * 997 + out);
    MlpConfig cfg = smallConfig(in, out);
    cfg.hiddenActivation = Activation::Tanh;
    Mlp net(cfg, rng);
    Matrix x(4, in), target(4, out);
    fillUniform(x, rng, -1, 1);
    fillUniform(target, rng, -1, 1);

    auto params = checkMlpGradients(net, x, target, Real(1e-2));
    EXPECT_LT(params.maxRelError, 0.05)
        << "abs " << params.maxAbsError;
    auto inputs = checkInputGradients(net, x, target, Real(1e-2));
    EXPECT_LT(inputs.maxRelError, 0.05)
        << "abs " << inputs.maxAbsError;
}

INSTANTIATE_TEST_SUITE_P(Shapes, SmoothMlpGradCheck,
                         ::testing::Values(std::make_pair(3, 1),
                                           std::make_pair(6, 4),
                                           std::make_pair(10, 2)));

TEST(Mlp, GradientsAccumulateAcrossBackwards)
{
    Rng rng(7);
    Mlp net(smallConfig(4, 2), rng);
    Matrix x(2, 4), target(2, 2);
    fillUniform(x, rng, -1, 1);
    fillUniform(target, rng, -1, 1);

    auto run_backward = [&] {
        Matrix pred = net.forward(x);
        Matrix g;
        mseLoss(pred, target, g);
        net.backward(g);
    };

    net.zeroGrad();
    run_backward();
    const Real g1 = net.params()[0]->grad(0, 0);
    run_backward();
    const Real g2 = net.params()[0]->grad(0, 0);
    EXPECT_NEAR(g2, 2 * g1, std::abs(g1) * 1e-3 + 1e-7);
}

TEST(Mlp, BackwardInputSlicesMatchFullBackwardColumns)
{
    // A critic-shaped net: the actor step reads dL/dx only at one
    // agent's action block. Every slice must equal those columns of
    // a full backward bit for bit, under every ISA, and must leave
    // the parameter gradients alone.
    const std::size_t in = 23;
    const std::pair<std::size_t, std::size_t> slices[] = {
        {0, 5}, {9, 14}, {in - 5, in}, {0, in}};
    for (auto isa : {numeric::kernels::Isa::Scalar,
                     numeric::kernels::Isa::Avx2}) {
        if (!numeric::kernels::isaAvailable(isa))
            continue;
        numeric::kernels::ScopedIsa pin(isa);
        Rng rng(11);
        MlpConfig config;
        config.inputDim = in;
        config.hiddenDims = {16, 16};
        config.outputDim = 2;
        Mlp net(config, rng);
        Matrix x(37, in), gy(37, 2);
        fillUniform(x, rng, -1, 1);
        fillUniform(gy, rng, -1, 1);
        Matrix y, full;
        net.forward(x, y);
        net.backward(gy, &full);
        net.zeroGrad();

        for (const auto &[c0, c1] : slices) {
            Matrix slice;
            net.backwardInput(gy, c0, c1, slice);
            ASSERT_EQ(slice.rows(), x.rows());
            ASSERT_EQ(slice.cols(), c1 - c0);
            for (std::size_t r = 0; r < slice.rows(); ++r)
                EXPECT_EQ(std::memcmp(slice.row(r), full.row(r) + c0,
                                      (c1 - c0) * sizeof(Real)),
                          0)
                    << numeric::kernels::isaName(isa) << " columns ["
                    << c0 << ", " << c1 << ") row " << r;
        }
        for (const Param *p : net.params())
            for (std::size_t k = 0; k < p->grad.size(); ++k)
                ASSERT_EQ(p->grad.data()[k], Real(0))
                    << "backwardInput touched a parameter gradient";
    }
}

TEST(Mlp, CopyFromMakesOutputsIdentical)
{
    Rng rng(8);
    Mlp a(smallConfig(5, 3), rng);
    Mlp b(smallConfig(5, 3), rng);
    Matrix x(4, 5);
    fillUniform(x, rng, -1, 1);
    b.copyFrom(a);
    Matrix ya = a.forward(x);
    Matrix yb = b.forward(x);
    for (std::size_t i = 0; i < ya.size(); ++i)
        EXPECT_EQ(ya.data()[i], yb.data()[i]);
}

TEST(Mlp, SoftUpdateInterpolates)
{
    Rng rng(9);
    Mlp src(smallConfig(3, 2), rng);
    Mlp dst(smallConfig(3, 2), rng);
    const Real w_src = src.params()[0]->value(0, 0);
    const Real w_dst = dst.params()[0]->value(0, 0);
    dst.softUpdateFrom(src, Real(0.25));
    EXPECT_NEAR(dst.params()[0]->value(0, 0),
                Real(0.25) * w_src + Real(0.75) * w_dst, 1e-6);
}

TEST(Mlp, SoftUpdateTauOneCopies)
{
    Rng rng(10);
    Mlp src(smallConfig(3, 2), rng);
    Mlp dst(smallConfig(3, 2), rng);
    dst.softUpdateFrom(src, Real(1));
    for (std::size_t p = 0; p < src.params().size(); ++p) {
        EXPECT_EQ(dst.params()[p]->value(0, 0),
                  src.params()[p]->value(0, 0));
    }
}

TEST(Adam, ConvergesOnQuadratic)
{
    // Minimize ||w - target||^2 for a single Param.
    Param w;
    w.init(1, 4);
    const Real target[4] = {1, -2, 3, -4};
    AdamConfig cfg;
    cfg.lr = Real(0.05);
    cfg.gradClipNorm = Real(0); // No clipping.
    AdamOptimizer opt({&w}, cfg);
    for (int step = 0; step < 2000; ++step) {
        for (int i = 0; i < 4; ++i)
            w.grad(0, i) = 2 * (w.value(0, i) - target[i]);
        opt.step();
    }
    for (int i = 0; i < 4; ++i)
        EXPECT_NEAR(w.value(0, i), target[i], 1e-2);
}

TEST(Adam, StepZeroesGradients)
{
    Param w;
    w.init(1, 2);
    w.grad.fill(Real(1));
    AdamOptimizer opt({&w});
    opt.step();
    EXPECT_EQ(w.grad(0, 0), Real(0));
    EXPECT_EQ(w.grad(0, 1), Real(0));
}

TEST(Adam, ClipGradNormScales)
{
    Param w;
    w.init(1, 2);
    w.grad(0, 0) = Real(3);
    w.grad(0, 1) = Real(4); // norm 5
    AdamConfig cfg;
    AdamOptimizer opt({&w}, cfg);
    const Real norm = opt.clipGradNorm(Real(1));
    EXPECT_NEAR(norm, 5.0, 1e-5);
    EXPECT_NEAR(w.grad(0, 0), 0.6, 1e-5);
    EXPECT_NEAR(w.grad(0, 1), 0.8, 1e-5);
}

TEST(Adam, NoClipBelowThreshold)
{
    Param w;
    w.init(1, 1);
    w.grad(0, 0) = Real(0.5);
    AdamOptimizer opt({&w});
    opt.clipGradNorm(Real(1));
    EXPECT_EQ(w.grad(0, 0), Real(0.5));
}

TEST(Loss, MseValueAndGradient)
{
    Matrix pred{{1, 2}}, target{{0, 0}};
    Matrix grad;
    const Real loss = mseLoss(pred, target, grad);
    EXPECT_NEAR(loss, (1.0 + 4.0) / 2.0, 1e-6);
    EXPECT_NEAR(grad(0, 0), 2.0 * 1 / 2, 1e-6);
    EXPECT_NEAR(grad(0, 1), 2.0 * 2 / 2, 1e-6);
}

TEST(Loss, WeightedMseReducesToMseWithUnitWeights)
{
    Rng rng(12);
    Matrix pred(6, 1), target(6, 1);
    fillUniform(pred, rng, -1, 1);
    fillUniform(target, rng, -1, 1);
    Matrix g1, g2;
    const Real l1 = mseLoss(pred, target, g1);
    const Real l2 = weightedMseLoss(pred, target,
                                    std::vector<Real>(6, Real(1)), g2);
    EXPECT_NEAR(l1, l2, 1e-6);
    for (std::size_t i = 0; i < g1.size(); ++i)
        EXPECT_NEAR(g1.data()[i], g2.data()[i], 1e-6);
}

TEST(Loss, WeightedMseScalesPerRow)
{
    Matrix pred{{1}, {1}}, target{{0}, {0}};
    Matrix grad;
    weightedMseLoss(pred, target, {Real(1), Real(0.5)}, grad);
    EXPECT_NEAR(grad(1, 0), grad(0, 0) * 0.5, 1e-6);
}

TEST(Loss, PolicyLossIsNegativeMeanQ)
{
    Matrix q{{1}, {3}};
    Matrix grad;
    const Real loss = policyLoss(q, grad);
    EXPECT_NEAR(loss, -2.0, 1e-6);
    EXPECT_NEAR(grad(0, 0), -0.5, 1e-6);
    EXPECT_NEAR(grad(1, 0), -0.5, 1e-6);
}

TEST(Loss, AbsTdError)
{
    Matrix pred{{1}, {-2}}, target{{3}, {-1}};
    auto td = absTdError(pred, target);
    ASSERT_EQ(td.size(), 2u);
    EXPECT_NEAR(td[0], 2.0, 1e-6);
    EXPECT_NEAR(td[1], 1.0, 1e-6);
}

TEST(Mlp, TrainsToFitSmallRegression)
{
    // End-to-end sanity: a small MLP + Adam fits y = [sum, diff].
    Rng rng(14);
    MlpConfig cfg = smallConfig(2, 2);
    cfg.hiddenDims = {16, 16};
    Mlp net(cfg, rng);
    AdamConfig acfg;
    acfg.lr = Real(0.01);
    AdamOptimizer opt(net.params(), acfg);

    Matrix x(64, 2), y(64, 2);
    fillUniform(x, rng, -1, 1);
    for (std::size_t r = 0; r < 64; ++r) {
        y(r, 0) = x(r, 0) + x(r, 1);
        y(r, 1) = x(r, 0) - x(r, 1);
    }

    Real loss = 0;
    for (int step = 0; step < 400; ++step) {
        Matrix pred = net.forward(x);
        Matrix g;
        loss = mseLoss(pred, y, g);
        net.backward(g);
        opt.step();
    }
    EXPECT_LT(loss, 1e-3);
}

} // namespace
} // namespace marlin::nn

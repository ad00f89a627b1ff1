#include "marlin/nn/mlp.hh"

#include <cmath>

#include "marlin/base/logging.hh"
#include "marlin/numeric/kernels.hh"

namespace marlin::nn
{

namespace
{

// y = tanh(y) in place. Stays scalar: libm tanh has no lane-exact
// vector twin.
void
tanhInPlace(Matrix &y)
{
    Real *d = y.data();
    for (std::size_t i = 0; i < y.size(); ++i)
        d[i] = std::tanh(d[i]);
}

} // namespace

Mlp::Mlp(const MlpConfig &config, Rng &rng) : _config(config)
{
    MARLIN_ASSERT(config.inputDim > 0 && config.outputDim > 0,
                  "Mlp requires nonzero input/output dims");
    std::size_t prev = config.inputDim;
    for (std::size_t h : config.hiddenDims) {
        layers.emplace_back(prev, h, rng);
        prev = h;
    }
    layers.emplace_back(prev, config.outputDim, rng);
    postact.resize(layers.size());
    dpre.resize(layers.size());
    dinput.resize(layers.size());
}

Activation
Mlp::activation(std::size_t i) const
{
    return i + 1 < layers.size() ? _config.hiddenActivation
                                 : _config.outputActivation;
}

void
Mlp::layerForward(std::size_t i, const Matrix &x, Matrix &y) const
{
    const Activation act = activation(i);
    layers[i].forward(x, y, act == Activation::ReLU);
    if (act == Activation::Tanh)
        tanhInPlace(y);
}

void
Mlp::forward(const Matrix &x, Matrix &y)
{
    input = &x;
    const Matrix *cur = &x;
    const std::size_t last = layers.size() - 1;
    for (std::size_t i = 0; i < last; ++i) {
        layerForward(i, *cur, postact[i]);
        cur = &postact[i];
    }
    if (activation(last) == Activation::Identity) {
        layers[last].forward(*cur, y);
        return;
    }
    layerForward(last, *cur, postact[last]);
    y = postact[last];
}

const Matrix &
Mlp::activationBackward(std::size_t i, const Matrix &grad_y)
{
    const Activation act = activation(i);
    if (act == Activation::Identity)
        return grad_y;
    const Matrix &out = postact[i];
    MARLIN_ASSERT(out.rows() == grad_y.rows() &&
                      out.cols() == grad_y.cols(),
                  "backward batch mismatch — missing forward()?");
    Matrix &d = dpre[i];
    d.reshape(out.rows(), out.cols());
    if (act == Activation::ReLU) {
        numeric::kernels::active().reluBackward(
            out.data(), grad_y.data(), d.data(), d.size());
    } else {
        for (std::size_t k = 0; k < d.size(); ++k) {
            const Real t = out.data()[k];
            d.data()[k] = grad_y.data()[k] * (Real(1) - t * t);
        }
    }
    return d;
}

void
Mlp::backward(const Matrix &x, const Matrix &grad_y, Matrix *grad_x)
{
    MARLIN_ASSERT(!layers.empty(), "backward on empty Mlp");
    MARLIN_ASSERT(&x == input && x.cols() == _config.inputDim &&
                      x.rows() == grad_y.rows(),
                  "backward needs the input of the last forward()");
    // Pointer walk over persistent per-layer scratch: identical
    // arithmetic to a copy-based chain, zero allocations once warm.
    const Matrix *grad = &grad_y;
    for (std::size_t i = layers.size(); i-- > 0;) {
        const Matrix &dpre_i = activationBackward(i, *grad);
        layers[i].backwardParams(i == 0 ? x : postact[i - 1], dpre_i);
        if (i > 0)
            layers[i].backwardInput(dpre_i, dinput[i]);
        else if (grad_x)
            layers[i].backwardInput(dpre_i, *grad_x);
        grad = &dinput[i];
    }
}

void
Mlp::backwardInput(const Matrix &grad_y, std::size_t col_begin,
                   std::size_t col_end, Matrix &grad_x)
{
    MARLIN_ASSERT(!layers.empty(), "backward on empty Mlp");
    const Matrix *grad = &grad_y;
    for (std::size_t i = layers.size(); i-- > 1;) {
        layers[i].backwardInput(activationBackward(i, *grad),
                                dinput[i]);
        grad = &dinput[i];
    }
    layers[0].backwardInput(activationBackward(0, *grad), grad_x,
                            col_begin, col_end);
}

std::vector<Param *>
Mlp::params()
{
    std::vector<Param *> out;
    for (auto &layer : layers)
        for (Param *p : layer.params())
            out.push_back(p);
    return out;
}

std::vector<const Param *>
Mlp::params() const
{
    std::vector<const Param *> out;
    for (const auto &layer : layers)
        for (const Param *p : layer.params())
            out.push_back(p);
    return out;
}

std::size_t
Mlp::paramCount() const
{
    std::size_t n = 0;
    for (const Param *p : params())
        n += p->value.size();
    return n;
}

// zeroGrad/copyFrom/softUpdateFrom iterate the layers directly
// (weight then bias, matching params() order) instead of building a
// params() vector: softUpdateFrom runs once per network per update,
// and the steady-state contract forbids that per-call allocation.

void
Mlp::zeroGrad()
{
    for (auto &layer : layers) {
        layer.weight.zeroGrad();
        layer.bias.zeroGrad();
    }
}

void
Mlp::copyFrom(const Mlp &src)
{
    MARLIN_ASSERT(layers.size() == src.layers.size(),
                  "copyFrom network shape mismatch");
    for (std::size_t i = 0; i < layers.size(); ++i) {
        layers[i].weight.value = src.layers[i].weight.value;
        layers[i].bias.value = src.layers[i].bias.value;
    }
}

void
Mlp::softUpdateFrom(const Mlp &src, Real tau)
{
    MARLIN_ASSERT(layers.size() == src.layers.size(),
                  "softUpdateFrom network shape mismatch");
    const numeric::kernels::KernelTable &kt =
        numeric::kernels::active();
    const auto blend = [&kt, tau](Matrix &d, const Matrix &s) {
        MARLIN_ASSERT(d.size() == s.size(), "param size mismatch");
        kt.softUpdate(tau, s.data(), d.data(), d.size());
    };
    for (std::size_t i = 0; i < layers.size(); ++i) {
        blend(layers[i].weight.value, src.layers[i].weight.value);
        blend(layers[i].bias.value, src.layers[i].bias.value);
    }
}

} // namespace marlin::nn

#include "marlin/nn/mlp.hh"

#include "marlin/base/logging.hh"
#include "marlin/numeric/kernels.hh"

namespace marlin::nn
{

Mlp::Mlp(const MlpConfig &config, Rng &rng) : _config(config)
{
    MARLIN_ASSERT(config.inputDim > 0 && config.outputDim > 0,
                  "Mlp requires nonzero input/output dims");
    std::size_t prev = config.inputDim;
    for (std::size_t h : config.hiddenDims) {
        layers.emplace_back(prev, h, rng);
        acts.emplace_back(config.hiddenActivation);
        prev = h;
    }
    layers.emplace_back(prev, config.outputDim, rng);
    acts.emplace_back(config.outputActivation);
    preact.resize(layers.size());
    postact.resize(layers.size());
    dpre.resize(layers.size());
    dinput.resize(layers.size());
}

void
Mlp::forward(const Matrix &x, Matrix &y)
{
    const Matrix *cur = &x;
    for (std::size_t i = 0; i < layers.size(); ++i) {
        layers[i].forward(*cur, preact[i]);
        acts[i].forward(preact[i], postact[i]);
        cur = &postact[i];
    }
    y = *cur;
}

Matrix
Mlp::forward(const Matrix &x)
{
    Matrix y;
    forward(x, y);
    return y;
}

void
Mlp::backward(const Matrix &grad_y, Matrix *grad_x)
{
    MARLIN_ASSERT(!layers.empty(), "backward on empty Mlp");
    // Pointer walk over persistent per-layer scratch: identical
    // arithmetic to a copy-based chain, zero allocations once warm.
    const Matrix *grad = &grad_y;
    for (std::size_t i = layers.size(); i-- > 0;) {
        acts[i].backward(*grad, dpre[i]);
        layers[i].backwardParams(dpre[i]);
        if (i > 0)
            layers[i].backwardInput(dpre[i], dinput[i]);
        else if (grad_x)
            layers[i].backwardInput(dpre[i], *grad_x);
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
        acts[i].backward(*grad, dpre[i]);
        layers[i].backwardInput(dpre[i], dinput[i]);
        grad = &dinput[i];
    }
    acts[0].backward(*grad, dpre[0]);
    layers[0].backwardInput(dpre[0], grad_x, col_begin, col_end);
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

#include "marlin/nn/grad_check.hh"

#include <cmath>

#include "marlin/nn/loss.hh"

namespace marlin::nn
{

namespace
{

double
lossAt(Mlp &net, const Matrix &x, const Matrix &target)
{
    Matrix pred = net.forward(x);
    Matrix grad_unused;
    return mseLoss(pred, target, grad_unused);
}

void
record(GradCheckResult &res, Real analytic, Real numeric)
{
    const Real abs_err = std::abs(analytic - numeric);
    const Real denom = std::max({std::abs(analytic),
                                 std::abs(numeric), Real(1e-4)});
    res.maxAbsError = std::max(res.maxAbsError, abs_err);
    res.maxRelError = std::max(res.maxRelError, abs_err / denom);
    ++res.checked;
}

} // namespace

GradCheckResult
checkMlpGradients(Mlp &net, const Matrix &x, const Matrix &target,
                  Real epsilon, std::size_t stride)
{
    GradCheckResult res;
    // Analytic pass.
    net.zeroGrad();
    Matrix pred = net.forward(x);
    Matrix dloss;
    mseLoss(pred, target, dloss);
    net.backward(x, dloss);

    for (Param *p : net.params()) {
        for (std::size_t j = 0; j < p->value.size(); j += stride) {
            Real &w = p->value.data()[j];
            const Real saved = w;
            w = saved + epsilon;
            const double lp = lossAt(net, x, target);
            w = saved - epsilon;
            const double lm = lossAt(net, x, target);
            w = saved;
            const Real numeric = static_cast<Real>(
                (lp - lm) / (2.0 * epsilon));
            record(res, p->grad.data()[j], numeric);
        }
    }
    return res;
}

GradCheckResult
checkInputGradients(Mlp &net, const Matrix &x, const Matrix &target,
                    Real epsilon, std::size_t stride)
{
    GradCheckResult res;
    net.zeroGrad();
    Matrix pred = net.forward(x);
    Matrix dloss;
    mseLoss(pred, target, dloss);
    Matrix dx;
    net.backward(x, dloss, &dx);

    Matrix probe = x;
    for (std::size_t j = 0; j < probe.size(); j += stride) {
        Real &v = probe.data()[j];
        const Real saved = v;
        v = saved + epsilon;
        const double lp = lossAt(net, probe, target);
        v = saved - epsilon;
        const double lm = lossAt(net, probe, target);
        v = saved;
        const Real numeric = static_cast<Real>(
            (lp - lm) / (2.0 * epsilon));
        record(res, dx.data()[j], numeric);
    }
    return res;
}

} // namespace marlin::nn

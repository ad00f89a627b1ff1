#include "marlin/nn/loss.hh"

#include <cmath>

#include "marlin/base/logging.hh"

namespace marlin::nn
{

Real
mseLoss(const Matrix &pred, const Matrix &target, Matrix &grad)
{
    MARLIN_ASSERT(pred.rows() == target.rows() &&
                      pred.cols() == target.cols(),
                  "mse shape mismatch");
    grad.resize(pred.rows(), pred.cols());
    const std::size_t n = pred.size();
    double loss = 0.0;
    const Real inv = Real(2) / static_cast<Real>(n);
    for (std::size_t i = 0; i < n; ++i) {
        const Real diff = pred.data()[i] - target.data()[i];
        loss += static_cast<double>(diff) * diff;
        grad.data()[i] = inv * diff;
    }
    return static_cast<Real>(loss / static_cast<double>(n));
}

Real
weightedMseLoss(const Matrix &pred, const Matrix &target,
                const std::vector<Real> &weights, Matrix &grad)
{
    MARLIN_ASSERT(pred.rows() == target.rows() &&
                      pred.cols() == target.cols(),
                  "weighted mse shape mismatch");
    MARLIN_ASSERT(weights.size() == pred.rows(),
                  "one importance weight per batch row required");
    grad.resize(pred.rows(), pred.cols());
    const std::size_t n = pred.size();
    double loss = 0.0;
    const Real inv = Real(2) / static_cast<Real>(n);
    for (std::size_t r = 0; r < pred.rows(); ++r) {
        const Real w = weights[r];
        for (std::size_t c = 0; c < pred.cols(); ++c) {
            const Real diff = pred(r, c) - target(r, c);
            loss += static_cast<double>(w) * diff * diff;
            grad(r, c) = inv * w * diff;
        }
    }
    return static_cast<Real>(loss / static_cast<double>(n));
}

Real
policyLoss(const Matrix &q, Matrix &grad)
{
    grad.resize(q.rows(), q.cols());
    const std::size_t n = q.size();
    MARLIN_ASSERT(n > 0, "policy loss over empty batch");
    double total = 0.0;
    const Real g = Real(-1) / static_cast<Real>(n);
    for (std::size_t i = 0; i < n; ++i) {
        total += q.data()[i];
        grad.data()[i] = g;
    }
    return static_cast<Real>(-total / static_cast<double>(n));
}

void
absTdErrorInto(const Matrix &pred, const Matrix &target,
               std::vector<Real> &out)
{
    MARLIN_ASSERT(pred.cols() == 1 && target.cols() == 1,
                  "TD error expects column vectors");
    MARLIN_ASSERT(pred.rows() == target.rows(), "TD error row mismatch");
    out.resize(pred.rows());
    for (std::size_t r = 0; r < pred.rows(); ++r)
        out[r] = std::abs(pred(r, 0) - target(r, 0));
}

} // namespace marlin::nn

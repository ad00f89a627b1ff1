/**
 * @file
 * Loss functions returning both the scalar loss and the gradient
 * with respect to predictions.
 */

#ifndef MARLIN_NN_LOSS_HH
#define MARLIN_NN_LOSS_HH

#include <vector>

#include "marlin/numeric/matrix.hh"

namespace marlin::nn
{

using numeric::Matrix;

/**
 * Mean-squared error: L = mean((pred - target)^2).
 * @param grad Receives dL/dpred (same shape as pred).
 * @return The scalar loss.
 */
Real mseLoss(const Matrix &pred, const Matrix &target, Matrix &grad);

/**
 * Importance-weighted MSE used by prioritized replay:
 * L = mean(w_i * (pred_i - target_i)^2) over batch rows. The weights
 * implement the paper's Lemma 1 bias-correction (w_i =
 * (1/N * 1/P(i))^beta, normalized).
 *
 * @param weights One weight per batch row.
 * @param grad Receives dL/dpred.
 * @return The scalar loss.
 */
Real weightedMseLoss(const Matrix &pred, const Matrix &target,
                     const std::vector<Real> &weights, Matrix &grad);

/**
 * Policy-gradient objective for the deterministic actor:
 * L = -mean(q). Gradient w.r.t. q is -1/batch.
 */
Real policyLoss(const Matrix &q, Matrix &grad);

/**
 * Per-row absolute TD error |pred - target|, used to refresh
 * priorities in PER, into caller-owned storage (capacity-retaining).
 */
void absTdErrorInto(const Matrix &pred, const Matrix &target,
                    std::vector<Real> &out);

} // namespace marlin::nn

#endif // MARLIN_NN_LOSS_HH

/**
 * @file
 * Elementwise and reduction operations on Matrix plus small
 * vector helpers used by the environments and trainers.
 */

#ifndef MARLIN_NUMERIC_OPS_HH
#define MARLIN_NUMERIC_OPS_HH

#include <cstddef>
#include <vector>

#include "marlin/base/random.hh"
#include "marlin/numeric/matrix.hh"

namespace marlin::numeric
{

/** out = a + b (shape-checked). */
Matrix add(const Matrix &a, const Matrix &b);

/** out = a - b. */
Matrix sub(const Matrix &a, const Matrix &b);

/** out = a * scale. */
Matrix scale(const Matrix &a, Real factor);

/** Sum of rows -> 1 x cols matrix (bias gradient reduction). */
Matrix sumRows(const Matrix &m);

/**
 * sumRows into caller-owned storage (capacity-retaining; identical
 * reduction order, so results match sumRows bit-for-bit).
 */
void sumRowsInto(const Matrix &m, Matrix &out);

/** Mean of all elements. */
Real mean(const Matrix &m);

/** Sum of all elements. */
Real sum(const Matrix &m);

/** True if any element is NaN or infinite. */
bool hasNonFinite(const Matrix &m);

/** Row-wise softmax in place. */
void softmaxRows(Matrix &m);

/**
 * Backward pass of a row-wise softmax.
 *
 * @param softmax_out The forward result S (rows of probabilities).
 * @param grad_out dL/dS.
 * @param grad_in Receives dL/dx where S = softmax(x):
 *        dx_j = S_j * (dS_j - sum_k dS_k * S_k) per row.
 */
void softmaxBackwardRows(const Matrix &softmax_out,
                         const Matrix &grad_out, Matrix &grad_in);

/**
 * Gumbel-softmax style discrete action sampling: adds Gumbel noise to
 * each row of logits and returns per-row argmax indices.
 */
std::vector<std::size_t> gumbelArgmaxRows(const Matrix &logits, Rng &rng);

/**
 * Single-row Gumbel argmax: identical RNG draw order and arithmetic
 * as gumbelArgmaxRows restricted to @p row, without allocating the
 * result vector (hot per-step action selection).
 */
std::size_t gumbelArgmaxRow(const Matrix &logits, std::size_t row,
                            Rng &rng);

/** Per-row argmax indices. */
std::vector<std::size_t> argmaxRows(const Matrix &m);

/**
 * Horizontal concatenation: out = [a | b | ...]. All inputs must
 * share a row count. Used to build joint observation-action inputs
 * for the centralized critic.
 */
Matrix hconcat(const std::vector<const Matrix *> &parts);

/**
 * hconcat into caller-owned storage (capacity-retaining; the output
 * is fully overwritten, so no zero-fill happens).
 */
void hconcatInto(const std::vector<const Matrix *> &parts,
                 Matrix &out);

/** Fill @p m with uniform values in [lo, hi). */
void fillUniform(Matrix &m, Rng &rng, Real lo, Real hi);

/** Elementwise clamp in place. */
void clampInPlace(Matrix &m, Real lo, Real hi);

} // namespace marlin::numeric

#endif // MARLIN_NUMERIC_OPS_HH

/**
 * @file
 * General matrix multiply on the register-tiled GEMM panel.
 *
 * These three variants cover every product the NN substrate needs
 * without materializing transposes:
 *   gemm      : C  = A   * B      (forward pass)
 *   gemmTN    : C  = A^T * B      (weight gradients)
 *   gemmNT    : C  = A   * B^T    (input gradients)
 * Each overwrites C and runs through KernelTable::gemmPanel, so every
 * C element is one ascending-k chain from +0: bit-identical for any
 * ISA and any thread count.
 */

#ifndef MARLIN_NUMERIC_GEMM_HH
#define MARLIN_NUMERIC_GEMM_HH

#include <vector>

#include "marlin/numeric/matrix.hh"

namespace marlin::numeric
{

/** C = A * B. Shapes: A(m,k), B(k,n) -> C(m,n). */
void gemm(const Matrix &a, const Matrix &b, Matrix &c);

/** C = A^T * B. Shapes: A(k,m), B(k,n) -> C(m,n). */
void gemmTN(const Matrix &a, const Matrix &b, Matrix &c);

/**
 * C = A * B^T. Shapes: A(m,k), B(n,k) -> C(m,n). B^T is packed into
 * @p pack, which the caller keeps between calls: it grows to k*n
 * Reals once and is reused after, so a warm call never allocates.
 */
void gemmNT(const Matrix &a, const Matrix &b, Matrix &c,
            std::vector<Real> &pack);

} // namespace marlin::numeric

#endif // MARLIN_NUMERIC_GEMM_HH

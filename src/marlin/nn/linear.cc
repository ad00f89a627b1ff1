#include "marlin/nn/linear.hh"

#include <algorithm>
#include <cmath>

#include "marlin/numeric/gemm.hh"
#include "marlin/numeric/ops.hh"

namespace marlin::nn
{

Linear::Linear(std::size_t in, std::size_t out, Rng &rng)
{
    weight.init(in, out);
    bias.init(1, out);
    const Real bound = Real(1) / std::sqrt(static_cast<Real>(in));
    numeric::fillUniform(weight.value, rng, -bound, bound);
    numeric::fillUniform(bias.value, rng, -bound, bound);
}

void
Linear::forward(const Matrix &x, Matrix &y, bool relu) const
{
    MARLIN_ASSERT(x.cols() == weight.value.rows(),
                  "linear input dimension mismatch");
    numeric::gemm(x, weight.value, y, &bias.value, relu);
}

void
Linear::backwardParams(const Matrix &x, const Matrix &grad_y)
{
    MARLIN_ASSERT(x.cols() == inDim() && grad_y.rows() == x.rows() &&
                      grad_y.cols() == outDim(),
                  "linear backward shape mismatch");
    // dW += x^T dy ; db += sum_rows(dy)
    numeric::gemmTN(x, grad_y, dwScratch);
    weight.grad += dwScratch;
    numeric::sumRowsInto(grad_y, dbScratch);
    bias.grad += dbScratch;
}

void
Linear::backwardInput(const Matrix &grad_y, Matrix &grad_x)
{
    // dx = dy W^T
    numeric::gemmNT(grad_y, weight.value, grad_x, packScratch);
}

void
Linear::backwardInput(const Matrix &grad_y, Matrix &grad_x,
                      std::size_t col_begin, std::size_t col_end)
{
    MARLIN_ASSERT(col_begin <= col_end && col_end <= inDim(),
                  "input column range out of bounds");
    // dx[:, c] = dy W[c, :]^T for c in the range: each element is the
    // same ascending-k dot product as in the full-width product.
    const std::size_t out = outDim();
    weightRows.reshape(col_end - col_begin, out);
    std::copy(weight.value.row(col_begin),
              weight.value.row(col_begin) + weightRows.size(),
              weightRows.data());
    numeric::gemmNT(grad_y, weightRows, grad_x, packScratch);
}

std::vector<Param *>
Linear::params()
{
    return {&weight, &bias};
}

std::vector<const Param *>
Linear::params() const
{
    return {&weight, &bias};
}

} // namespace marlin::nn

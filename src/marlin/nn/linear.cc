#include "marlin/nn/linear.hh"

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
Linear::forward(const Matrix &x, Matrix &y)
{
    MARLIN_ASSERT(x.cols() == weight.value.rows(),
                  "linear input dimension mismatch");
    cachedInput = x;
    numeric::gemm(x, weight.value, y);
    numeric::addRowBias(y, bias.value);
}

void
Linear::backward(const Matrix &grad_y, Matrix &grad_x)
{
    MARLIN_ASSERT(grad_y.rows() == cachedInput.rows(),
                  "backward batch mismatch — missing forward()?");
    // dW += x^T dy ; db += sum_rows(dy) ; dx = dy W^T
    numeric::gemmTN(cachedInput, grad_y, dwScratch);
    weight.grad += dwScratch;
    numeric::sumRowsInto(grad_y, dbScratch);
    bias.grad += dbScratch;
    numeric::gemmNT(grad_y, weight.value, grad_x, packScratch);
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

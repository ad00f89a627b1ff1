/**
 * @file
 * Fully-connected layer with manual backprop.
 */

#ifndef MARLIN_NN_LINEAR_HH
#define MARLIN_NN_LINEAR_HH

#include <vector>

#include "marlin/base/random.hh"
#include "marlin/numeric/matrix.hh"

namespace marlin::nn
{

using numeric::Matrix;

/**
 * A trainable parameter: value plus accumulated gradient. Layers own
 * their Params; optimizers receive stable pointers to them.
 */
struct Param
{
    Matrix value; ///< Current parameter values.
    Matrix grad;  ///< Accumulated gradient (same shape).

    /** Allocate with the given shape, gradient zeroed. */
    void
    init(std::size_t rows, std::size_t cols)
    {
        value.resize(rows, cols);
        grad.resize(rows, cols);
    }

    /** Zero the gradient (start of a backward pass). */
    void zeroGrad() { grad.zero(); }
};

/**
 * y = x W + b, with W of shape (in, out) and b of shape (1, out).
 *
 * The layer keeps no copy of its input: backwardParams() takes the
 * x the forward read. The backward pass is split in two, so a caller
 * that discards dL/dW and dL/db, or dL/dx, never computes them.
 */
class Linear
{
  public:
    Linear() = default;

    /**
     * Construct and initialize with the fan-in uniform scheme
     * U(-1/sqrt(in), 1/sqrt(in)) used by the reference MADDPG code.
     */
    Linear(std::size_t in, std::size_t out, Rng &rng);

    std::size_t inDim() const { return weight.value.rows(); }
    std::size_t outDim() const { return weight.value.cols(); }

    /**
     * y = x W + b, then y = max(y, 0) elementwise (keeping -0 and
     * NaN) when @p relu. Both run in the GEMM's epilogue, so each
     * element of y is written once.
     */
    void forward(const Matrix &x, Matrix &y, bool relu = false) const;

    /**
     * Given the forward input @p x and dL/dy, accumulate dL/dW into
     * weight.grad and dL/db into bias.grad.
     */
    void backwardParams(const Matrix &x, const Matrix &grad_y);

    /** Given dL/dy, produce dL/dx = dL/dy W^T. */
    void backwardInput(const Matrix &grad_y, Matrix &grad_x);

    /**
     * dL/dx restricted to input columns [col_begin, col_end): bit for
     * bit those columns of the full dL/dx, from a product against
     * only the matching rows of W.
     */
    void backwardInput(const Matrix &grad_y, Matrix &grad_x,
                       std::size_t col_begin, std::size_t col_end);

    /** Stable pointers to the layer's parameters. */
    std::vector<Param *> params();
    std::vector<const Param *> params() const;

    Param weight; ///< (in, out)
    Param bias;   ///< (1, out)

  private:
    // Persistent backward scratch (dL/dW, dL/db) so steady-state
    // backprop performs no heap allocations.
    Matrix dwScratch;
    Matrix dbScratch;
    // Rows [col_begin, col_end) of W for a column-range dL/dx, sized
    // by the first such call.
    Matrix weightRows;
    // gemmNT's packed W^T for dL/dx, sized by the first backward.
    // Owned by the layer rather than the calling thread, so an agent
    // update reaching a pool worker for the first time after warm-up
    // finds it already sized.
    std::vector<Real> packScratch;
};

} // namespace marlin::nn

#endif // MARLIN_NN_LINEAR_HH

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
 * forward() caches the input so that a subsequent backwardParams()
 * can compute the weight gradient. The backward pass is split in
 * two, so a caller that discards dL/dW and dL/db, or dL/dx, never
 * computes them.
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

    /** Compute y = x W + b; caches x. */
    void forward(const Matrix &x, Matrix &y);

    /**
     * Given dL/dy, accumulate dL/dW into weight.grad and dL/db into
     * bias.grad.
     * @pre forward() was called with the matching batch.
     */
    void backwardParams(const Matrix &grad_y);

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
    Matrix cachedInput;
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

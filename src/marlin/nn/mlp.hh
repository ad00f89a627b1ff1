/**
 * @file
 * Multi-layer perceptron matching the paper's network shape:
 * two hidden ReLU layers of 64 units each (configurable).
 */

#ifndef MARLIN_NN_MLP_HH
#define MARLIN_NN_MLP_HH

#include <vector>

#include "marlin/nn/activation.hh"
#include "marlin/nn/linear.hh"

namespace marlin::nn
{

/** Shape and activation configuration of an Mlp. */
struct MlpConfig
{
    std::size_t inputDim = 0;
    std::vector<std::size_t> hiddenDims = {64, 64};
    std::size_t outputDim = 0;
    Activation hiddenActivation = Activation::ReLU;
    Activation outputActivation = Activation::Identity;
};

/**
 * Feed-forward network: Linear -> act -> ... -> Linear -> out-act.
 *
 * Each layer writes its activation once: the GEMM adds the bias and
 * applies a ReLU before its store, and a Tanh runs in place on that
 * output. The network keeps no copy of its input or of any
 * pre-activation. Backward takes the input from the caller and
 * reads every activation derivative from the layer's output.
 *
 * One backward() per forward(); gradients accumulate into each
 * layer's Param::grad until zeroGrad().
 */
class Mlp
{
  public:
    Mlp() = default;

    /** Construct with fan-in uniform initialization. */
    Mlp(const MlpConfig &config, Rng &rng);

    const MlpConfig &config() const { return _config; }

    /**
     * y = net(x). An Identity output layer writes y directly;
     * otherwise y is a copy of the output backward reads.
     */
    void forward(const Matrix &x, Matrix &y);

    /** Convenience: forward returning the output by value. */
    Matrix forward(const Matrix &x);

    /**
     * Backpropagate dL/dy, accumulating parameter gradients;
     * optionally produce dL/dx. Without @p grad_x the first layer's
     * input gradient is never computed.
     * @param x The input of the last forward(), which the first
     *          layer's weight gradient reads: the same object,
     *          unchanged since.
     */
    void backward(const Matrix &x, const Matrix &grad_y,
                  Matrix *grad_x = nullptr);

    /**
     * Input gradient only, for chaining through a frozen network:
     * dL/dx restricted to input columns [col_begin, col_end), bit for
     * bit those columns of backward()'s dL/dx. Parameter gradients
     * are left untouched. @pre forward() was called with the
     * matching batch.
     */
    void backwardInput(const Matrix &grad_y, std::size_t col_begin,
                       std::size_t col_end, Matrix &grad_x);

    /** All trainable parameters, in layer order. */
    std::vector<Param *> params();
    std::vector<const Param *> params() const;

    /** Total scalar parameter count. */
    std::size_t paramCount() const;

    /** Zero all parameter gradients. */
    void zeroGrad();

    /** Hard-copy parameters from @p src (target network init). */
    void copyFrom(const Mlp &src);

    /**
     * Polyak soft update: this = tau * src + (1 - tau) * this.
     * The paper uses tau = 0.01.
     */
    void softUpdateFrom(const Mlp &src, Real tau);

  private:
    /** Activation of layer @p i: hidden, or the output's. */
    Activation activation(std::size_t i) const;

    /** Layer @p i's activation of @p x, written into @p y. */
    void layerForward(std::size_t i, const Matrix &x, Matrix &y) const;

    /**
     * dL/d(pre-activation) of layer @p i from dL/d(its output):
     * @p grad_y itself for Identity, else dpre[i].
     */
    const Matrix &activationBackward(std::size_t i,
                                     const Matrix &grad_y);

    MlpConfig _config;
    std::vector<Linear> layers;
    // Each layer's output, the next layer's input; unused for an
    // Identity output layer, which writes the caller's y.
    std::vector<Matrix> postact;
    // The last forward()'s input, only to check backward()'s.
    const Matrix *input = nullptr;
    // Backward scratch, one pair per layer: dL/d(pre-activation)
    // and dL/d(layer input). Persisting them makes a warm backward
    // pass allocation-free.
    std::vector<Matrix> dpre;
    std::vector<Matrix> dinput;
};

} // namespace marlin::nn

#endif // MARLIN_NN_MLP_HH

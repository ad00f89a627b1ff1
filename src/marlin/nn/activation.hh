/**
 * @file
 * The activation kinds an Mlp layer can apply. Mlp applies them
 * itself: ReLU in the GEMM's epilogue, Tanh in place on the layer's
 * output, and both take their backward from that output.
 */

#ifndef MARLIN_NN_ACTIVATION_HH
#define MARLIN_NN_ACTIVATION_HH

#include <string>

namespace marlin::nn
{

/** Supported activation kinds. */
enum class Activation { Identity, ReLU, Tanh };

/** Parse "relu"/"tanh"/"identity" (case-sensitive). */
Activation activationFromString(const std::string &name);

/** Printable name. */
const char *activationName(Activation a);

} // namespace marlin::nn

#endif // MARLIN_NN_ACTIVATION_HH

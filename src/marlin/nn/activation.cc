#include "marlin/nn/activation.hh"

#include "marlin/base/logging.hh"

namespace marlin::nn
{

Activation
activationFromString(const std::string &name)
{
    if (name == "relu")
        return Activation::ReLU;
    if (name == "tanh")
        return Activation::Tanh;
    if (name == "identity")
        return Activation::Identity;
    fatal("unknown activation '%s'", name.c_str());
}

const char *
activationName(Activation a)
{
    switch (a) {
      case Activation::Identity:
        return "identity";
      case Activation::ReLU:
        return "relu";
      case Activation::Tanh:
        return "tanh";
    }
    return "?";
}

} // namespace marlin::nn

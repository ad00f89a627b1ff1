/**
 * @file
 * The phase taxonomy of the paper's characterization: the top level
 * splits end-to-end training into action selection / update all
 * trainers / other (Figure 2); update-all-trainers splits into
 * mini-batch sampling / target-Q calculation / Q loss & P loss
 * (Figure 3).
 */

#ifndef MARLIN_PROFILE_PHASE_HH
#define MARLIN_PROFILE_PHASE_HH

#include <array>
#include <cstddef>

namespace marlin::profile
{

/** Training phases instrumented by the train loop. */
enum class Phase : std::size_t
{
    ActionSelection = 0, ///< Actor forward + exploration.
    EnvStep,             ///< Physics + rewards ("other segments").
    Sampling,            ///< Mini-batch sampling (index plan + gather).
    TargetQ,             ///< Next actions + target critic forward.
    QPLoss,              ///< Critic/actor losses + backprop + Adam.
    BufferAdd,           ///< Replay insertion ("other segments").
    NumPhases
};

inline constexpr std::size_t numPhases =
    static_cast<std::size_t>(Phase::NumPhases);

/** Printable phase name. */
constexpr const char *
phaseName(Phase p)
{
    switch (p) {
      case Phase::ActionSelection:
        return "action_selection";
      case Phase::EnvStep:
        return "env_step";
      case Phase::Sampling:
        return "mini_batch_sampling";
      case Phase::TargetQ:
        return "target_q";
      case Phase::QPLoss:
        return "q_p_loss";
      case Phase::BufferAdd:
        return "buffer_add";
      default:
        return "?";
    }
}

/** Phases composing the paper's "update all trainers" stage. */
inline constexpr std::array<Phase, 3> updateAllTrainersPhases = {
    Phase::Sampling, Phase::TargetQ, Phase::QPLoss};

} // namespace marlin::profile

#endif // MARLIN_PROFILE_PHASE_HH

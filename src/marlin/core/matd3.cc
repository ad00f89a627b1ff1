#include "marlin/core/matd3.hh"

#include <algorithm>

#include "marlin/base/serialize.hh"
#include "marlin/numeric/ops.hh"

namespace marlin::core
{

using profile::Phase;
using profile::ScopedPhase;

Matd3Trainer::Matd3Trainer(std::vector<std::size_t> obs_dims,
                           std::size_t act_dim, TrainConfig config,
                           SamplerFactory sampler_factory)
    : CtdeTrainerBase(std::move(obs_dims), act_dim, std::move(config),
                      std::move(sampler_factory), true),
      criticSteps(numAgents(), 0)
{
}

void
Matd3Trainer::targetNextActionsInto(
    const std::vector<AgentBatch> &batches, Rng &noise_rng,
    std::vector<Matrix> &out)
{
    const bool discrete =
        _config.actionMode == ActionMode::Discrete;
    out.resize(batches.size());
    for (std::size_t j = 0; j < batches.size(); ++j) {
        Matrix &a = out[j];
        nets[j]->targetActor.forward(batches[j].nextObs, a);
        // Target policy smoothing: clipped Gaussian noise on the
        // logits before the softmax relaxation (discrete), or on
        // the squashed action re-clamped to the action box
        // (continuous, as in TD3). Drawn from the updating agent's
        // private stream so the draw order never depends on how the
        // pool schedules the agent updates.
        for (std::size_t k = 0; k < a.size(); ++k) {
            Real noise = static_cast<Real>(
                noise_rng.gaussian(0.0, _config.targetNoiseStd));
            noise = std::clamp(noise, -_config.targetNoiseClip,
                               _config.targetNoiseClip);
            a.data()[k] += noise;
        }
        if (discrete) {
            numeric::softmaxRows(a);
        } else {
            numeric::clampInPlace(a, Real(-1), Real(1));
        }
    }
}

void
Matd3Trainer::updateAgent(std::size_t i,
                          const std::vector<AgentBatch> &batches,
                          UpdateWorkspace &ws,
                          profile::PhaseTimer &timer,
                          UpdateStats &stats)
{
    AgentNetworks &net = *nets[i];
    {
        ScopedPhase sp(timer, Phase::TargetQ);
        jointNextInto(batches, ws.nextActions, ws.concat,
                      ws.jointNext);
        // Clipped double-Q: the minimum of the twin target critics
        // counters over-estimation bias.
        net.targetCritic.forward(ws.jointNext, ws.qNext);
        net.targetCritic2->forward(ws.jointNext, ws.qNext2);
        Matrix &q1 = ws.qNext;
        for (std::size_t r = 0; r < q1.rows(); ++r)
            q1(r, 0) = std::min(q1(r, 0), ws.qNext2(r, 0));
        tdTargetInto(batches[i], q1, ws.y);
    }
    {
        ScopedPhase sp(timer, Phase::QPLoss);
        ++criticSteps[i];
        const bool update_actor =
            (criticSteps[i] % std::max<std::size_t>(
                                  1, _config.policyDelay)) == 0;
        const bool healthy =
            criticActorStep(i, batches, ws, update_actor, stats);
        if (update_actor && healthy)
            net.softUpdateTargets(_config.tau);
    }
}

void
Matd3Trainer::saveExtraState(std::ostream &os) const
{
    writeVector(os, criticSteps);
}

void
Matd3Trainer::loadExtraState(std::istream &is)
{
    const std::vector<StepCount> steps = readVector<StepCount>(is);
    if (steps.size() != criticSteps.size()) {
        fatal("checkpoint has %zu policy-delay counters, trainer "
              "has %zu",
              steps.size(), criticSteps.size());
    }
    criticSteps = steps;
}

} // namespace marlin::core

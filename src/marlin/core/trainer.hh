/**
 * @file
 * Abstract trainer interface consumed by the training loop, plus the
 * sampler-factory type that selects the paper's sampling strategy.
 */

#ifndef MARLIN_CORE_TRAINER_HH
#define MARLIN_CORE_TRAINER_HH

#include <array>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "marlin/core/config.hh"
#include "marlin/profile/timer.hh"
#include "marlin/replay/gather.hh"
#include "marlin/replay/replay_buffer.hh"
#include "marlin/replay/sampler.hh"

namespace marlin::core
{

/** Per-update diagnostics averaged over agents. */
struct UpdateStats
{
    Real criticLoss = 0;
    Real actorLoss = 0;
    Real meanAbsTd = 0;
    /**
     * L2 norms of the critic/actor loss gradients (dL/dQ resp.
     * dL/dlogits), averaged over agents. Telemetry diagnostics only:
     * computed from values the update already produced, so recording
     * them cannot perturb the training numerics.
     */
    Real criticGradNorm = 0;
    Real actorGradNorm = 0;
    /**
     * Agent updates in which a non-finite loss or gradient was
     * detected this call (0 on a healthy update). Under
     * HealthGuardPolicy::Off the poisoned updates were applied
     * anyway; under every other policy they were skipped before
     * touching the weights.
     */
    std::size_t nonFiniteCount = 0;
};

/**
 * Creates one Sampler per agent trainer. Called N times so that
 * prioritized samplers keep independent per-agent priority trees.
 */
using SamplerFactory =
    std::function<std::unique_ptr<replay::Sampler>()>;

/** Trainer interface: action selection plus update-all-trainers. */
class Trainer
{
  public:
    virtual ~Trainer() = default;

    /** Workload name ("maddpg", "matd3"). */
    virtual std::string name() const = 0;

    virtual std::size_t numAgents() const = 0;

    /**
     * Action-selection phase: one discrete action per agent from the
     * current policies (with exploration), written into @p out. The
     * out-parameter form is the steady-state hot path: a warm call
     * reuses @p out's capacity and performs no heap allocation.
     *
     * @param obs Per-agent observations.
     * @param episode Episode number (drives epsilon decay).
     * @param out Destination, resized to one action per agent.
     */
    virtual void
    selectActionsInto(const std::vector<std::vector<Real>> &obs,
                      std::size_t episode, std::vector<int> &out) = 0;

    /** Convenience by-value form of selectActionsInto. */
    std::vector<int>
    selectActions(const std::vector<std::vector<Real>> &obs,
                  std::size_t episode)
    {
        std::vector<int> out;
        selectActionsInto(obs, episode, out);
        return out;
    }

    /** Greedy actions (no exploration), for evaluation. */
    virtual std::vector<int>
    greedyActions(const std::vector<std::vector<Real>> &obs) = 0;

    /**
     * Continuous-control action selection (ActionMode::Continuous
     * trainers only): one clipped 2D force per agent with
     * exploration noise, written into @p out. Panics on discrete
     * trainers.
     */
    virtual void selectContinuousActionsInto(
        const std::vector<std::vector<Real>> &obs, std::size_t episode,
        std::vector<std::array<Real, 2>> &out)
    {
        (void)obs;
        (void)episode;
        (void)out;
        panic("trainer '%s' does not support continuous actions",
              name().c_str());
    }

    /** Convenience by-value form of selectContinuousActionsInto. */
    std::vector<std::array<Real, 2>>
    selectContinuousActions(const std::vector<std::vector<Real>> &obs,
                            std::size_t episode)
    {
        std::vector<std::array<Real, 2>> out;
        selectContinuousActionsInto(obs, episode, out);
        return out;
    }

    /** Greedy continuous actions (no exploration). */
    virtual std::vector<std::array<Real, 2>>
    greedyContinuousActions(const std::vector<std::vector<Real>> &obs)
    {
        panic("trainer '%s' does not support continuous actions",
              name().c_str());
    }

    /** Notify samplers that slot @p idx was (over)written. */
    virtual void onTransitionAdded(BufferIndex idx) = 0;

    /**
     * The paper's update-all-trainers stage: for every agent, sample
     * a mini-batch, compute target Q, and update critic/actor.
     *
     * @param store Replay storage behind the ReplayStore interface
     *              (per-agent or sharded/out-of-core) —
     *              samplers plan over store.size() and batches are
     *              gathered through store.gatherAll, so trainers are
     *              agnostic to the storage layout.
     * @param timer Phase accounting sink.
     */
    virtual UpdateStats update(const replay::ReplayStore &store,
                               profile::PhaseTimer &timer) = 0;
};

} // namespace marlin::core

#endif // MARLIN_CORE_TRAINER_HH

/**
 * @file
 * MADDPG (Lowe et al., 2017) with the CTDE structure the paper
 * characterizes: decentralized actors, centralized critics over the
 * joint observation-action space, target networks, and a pluggable
 * mini-batch sampling strategy.
 *
 * The shared base class CtdeTrainerBase implements everything common
 * to MADDPG and MATD3 — action selection, the per-agent sampling /
 * target-Q / loss phase structure, and the joint-input assembly —
 * so the two workloads differ only where the algorithms differ.
 */

#ifndef MARLIN_CORE_MADDPG_HH
#define MARLIN_CORE_MADDPG_HH

#include <array>
#include <functional>
#include <iosfwd>
#include <memory>
#include <string>
#include <vector>

#include "marlin/core/agent_networks.hh"
#include "marlin/core/config.hh"
#include "marlin/core/noise.hh"
#include "marlin/profile/timer.hh"
#include "marlin/replay/gather.hh"
#include "marlin/replay/replay_buffer.hh"
#include "marlin/replay/sampler.hh"

namespace marlin::core
{

using numeric::Matrix;
using replay::AgentBatch;

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

/**
 * Common machinery for centralized-critic actor-critic trainers:
 * action selection plus the paper's update-all-trainers stage, the
 * interface the training loops, the evaluator and checkpoints use.
 */
class CtdeTrainerBase
{
  public:
    /**
     * @param obs_dims Observation dimension per agent.
     * @param act_dim Discrete action count (shared).
     * @param config Hyper-parameters.
     * @param sampler_factory Builds one sampler per agent trainer.
     * @param twin_critic Allocate MATD3's second critic.
     */
    CtdeTrainerBase(std::vector<std::size_t> obs_dims,
                    std::size_t act_dim, TrainConfig config,
                    SamplerFactory sampler_factory, bool twin_critic);

    virtual ~CtdeTrainerBase() = default;

    /** Workload name ("maddpg", "matd3"). */
    virtual std::string name() const = 0;

    virtual std::size_t numAgents() const { return obsDims.size(); }

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
                      std::size_t episode, std::vector<int> &out);

    /** Greedy actions (no exploration), for evaluation. */
    virtual std::vector<int>
    greedyActions(const std::vector<std::vector<Real>> &obs);

    /**
     * Continuous-control action selection (ActionMode::Continuous
     * trainers only): one clipped 2D force per agent with
     * Ornstein-Uhlenbeck exploration noise, written into @p out.
     * Panics on discrete trainers.
     */
    virtual void selectContinuousActionsInto(
        const std::vector<std::vector<Real>> &obs, std::size_t episode,
        std::vector<std::array<Real, 2>> &out);

    /** Greedy continuous actions (no exploration). */
    virtual std::vector<std::array<Real, 2>>
    greedyContinuousActions(const std::vector<std::vector<Real>> &obs);

    /** Notify samplers that slot @p idx was (over)written. */
    virtual void onTransitionAdded(BufferIndex idx);

    /**
     * The paper's update-all-trainers stage: for every agent, sample
     * a mini-batch, compute target Q, and update critic/actor.
     *
     * @param store Replay storage behind the ReplayStore interface
     *              (per-agent or sharded/out-of-core): samplers plan
     *              over store.size() and batches are gathered through
     *              store.gatherAll, so trainers are agnostic to the
     *              storage layout.
     * @param timer Phase accounting sink.
     */
    virtual UpdateStats update(const replay::ReplayStore &store,
                               profile::PhaseTimer &timer);

    const TrainConfig &config() const { return _config; }
    AgentNetworks &networks(std::size_t i) { return *nets[i]; }
    replay::Sampler &sampler(std::size_t i) { return *samplers[i]; }

    /** Total updates applied so far (all agents count as one). */
    StepCount updateCount() const { return updates; }

    /** Per-agent replay shapes matching this trainer. */
    std::vector<replay::TransitionShape> transitionShapes() const;

    /**
     * Serialize everything mutable besides the networks: the shared
     * and per-agent RNG streams, OU noise processes, the update
     * counter, per-agent sampler state, and subclass extras (MATD3's
     * policy-delay counters). Together with the network checkpoint
     * and the replay contents this pins the trainer so a resumed run
     * continues bit-identically.
     */
    void saveRuntimeState(std::ostream &os) const;

    /** Restore state written by saveRuntimeState. */
    void loadRuntimeState(std::istream &is);

    /** Architecture fingerprint written into checkpoint metadata. */
    const std::vector<std::size_t> &observationDims() const
    {
        return obsDims;
    }
    std::size_t actionDim() const { return actDim; }
    bool twinCritic() const { return nets[0]->critic2 != nullptr; }

  protected:
    /**
     * Per-agent update workspace: every index plan, batch matrix and
     * intermediate the sampling / target-Q / loss pipeline produces,
     * owned by the agent so the pool can run agent updates
     * concurrently without sharing mutable buffers — and retained
     * across update() calls so a warm update performs no heap
     * allocation (the zero-allocation steady-state contract).
     */
    struct UpdateWorkspace
    {
        replay::IndexPlan plan;
        /** Target actions of every agent (cross-agent policy read). */
        std::vector<Matrix> nextActions;
        /** Pointer scratch for the hconcat joint assembly. */
        std::vector<const Matrix *> concat;
        Matrix jointNext; ///< [next obs | target actions].
        Matrix qNext;     ///< Target critic output.
        Matrix qNext2;    ///< Twin target critic output (MATD3).
        Matrix y;         ///< TD target.
        Matrix joint;     ///< [stored obs | stored actions].
        Matrix q1, q2;    ///< Critic outputs on the stored joint.
        Matrix dq, dq2;   ///< Critic loss gradients.
        Matrix logits;    ///< Actor forward on this agent's obs.
        Matrix soft;      ///< Softmax relaxation of the logits.
        Matrix jointPi;   ///< Joint with agent i's policy action.
        Matrix qPi;       ///< Critic output on jointPi.
        Matrix dqPi;      ///< Policy-loss gradient dL/dQ.
        Matrix dSoft;     ///< Critic input gradient at agent i's actions.
        Matrix dLogits;   ///< Gradient through the relaxation.
        std::vector<Real> td; ///< |TD error| per batch row.
        /** Per-agent accumulators for the concurrent update path. */
        UpdateStats stats;
        profile::PhaseTimer timer;
    };

    /**
     * Per-agent algorithm step, called inside update() after the
     * mini-batch gather and cross-agent target-action computation.
     * @p ws holds this agent's index plan, target next actions and
     * every intermediate buffer. The step may only touch agent
     * @p i's networks, sampler, Adam state and workspace — update()
     * runs all agents concurrently on the global ThreadPool, which
     * is race-free exactly because agents own disjoint state and
     * only read the shared batches. Implementations charge their
     * work to the TargetQ / QPLoss phases of @p timer.
     */
    virtual void updateAgent(std::size_t i,
                             const std::vector<AgentBatch> &batches,
                             UpdateWorkspace &ws,
                             profile::PhaseTimer &timer,
                             UpdateStats &stats) = 0;

    /**
     * Target next actions for every agent, written into @p out (one
     * matrix per agent, capacity reused across updates): target-actor
     * forward on next observations followed by a softmax relaxation.
     * MATD3 overrides to inject clipped smoothing noise (drawn from
     * @p noise_rng, the per-agent stream of the updating agent) into
     * the logits. Runs in the serial prologue of update() because it
     * forwards every agent's target actor: all agents read one
     * consistent pre-update snapshot of the target networks.
     */
    virtual void
    targetNextActionsInto(const std::vector<AgentBatch> &batches,
                          Rng &noise_rng, std::vector<Matrix> &out);

    /** [obs_0..obs_{N-1} | act_0..act_{N-1}] from stored samples. */
    void jointCurrentInto(const std::vector<AgentBatch> &batches,
                          std::vector<const Matrix *> &scratch,
                          Matrix &out) const;

    /** Same layout from next observations and given next actions. */
    void jointNextInto(const std::vector<AgentBatch> &batches,
                       const std::vector<Matrix> &next_actions,
                       std::vector<const Matrix *> &scratch,
                       Matrix &out) const;

    /** TD target y = r + gamma * (1 - done) * q_next. */
    void tdTargetInto(const AgentBatch &batch, const Matrix &q_next,
                      Matrix &y) const;

    /** Column where agent @p i's action block starts in the joint. */
    std::size_t actionColumn(std::size_t i) const;

    /**
     * Critic-loss + actor-loss + optimizer step shared by both
     * algorithms (MATD3 passes its twin critic and defers the actor
     * by gating @p update_actor). Consumes @p ws.plan / @p ws.y and
     * the workspace intermediates.
     *
     * Losses and loss gradients are screened for NaN/Inf before the
     * optimizers apply them. @return false when a non-finite value
     * was found (the caller must then skip the target soft update);
     * under any policy except HealthGuardPolicy::Off the poisoned
     * step is dropped before it can touch the weights.
     */
    bool criticActorStep(std::size_t i,
                         const std::vector<AgentBatch> &batches,
                         UpdateWorkspace &ws, bool update_actor,
                         UpdateStats &stats);

    /** Subclass hook: extra runtime state (MATD3 criticSteps). */
    virtual void saveExtraState(std::ostream &os) const { (void)os; }
    virtual void loadExtraState(std::istream &is) { (void)is; }

    TrainConfig _config;
    std::vector<std::size_t> obsDims;
    std::size_t actDim;
    std::size_t jointDim;
    std::size_t sumObsDims;
    Rng rng;
    /**
     * One independent RNG stream per agent (seeded from the trainer
     * seed via SplitMix64) for randomness consumed inside the
     * per-agent update, e.g. MATD3's target policy smoothing noise.
     * Keeping these draws off the shared stream is what makes the
     * parallel agent updates deterministic for any thread count.
     */
    std::vector<Rng> agentRngs;
    EpsilonSchedule epsilon;
    std::vector<std::unique_ptr<AgentNetworks>> nets;
    std::vector<std::unique_ptr<replay::Sampler>> samplers;
    /** Per-agent OU exploration processes (continuous mode only). */
    std::vector<OrnsteinUhlenbeckNoise> ouNoise;
    StepCount updates = 0;

    // Per-update scratch reused across update() calls: each agent
    // keeps its own gathered batches so the pool can run agent
    // updates concurrently without sharing mutable buffers.
    std::vector<std::vector<AgentBatch>> scratchBatches;
    /** One retained workspace per agent (see UpdateWorkspace). */
    std::vector<UpdateWorkspace> workspaces;
    // Action-selection scratch (selection runs serially on the
    // calling thread): single-row observation input and the actor's
    // output logits / squashed action.
    Matrix selObs;
    Matrix selOut;
};

/** The baseline workload of the paper. */
class MaddpgTrainer : public CtdeTrainerBase
{
  public:
    MaddpgTrainer(std::vector<std::size_t> obs_dims,
                  std::size_t act_dim, TrainConfig config,
                  SamplerFactory sampler_factory);

    std::string name() const override { return "maddpg"; }

  protected:
    void updateAgent(std::size_t i,
                     const std::vector<AgentBatch> &batches,
                     UpdateWorkspace &ws, profile::PhaseTimer &timer,
                     UpdateStats &stats) override;
};

} // namespace marlin::core

#endif // MARLIN_CORE_MADDPG_HH

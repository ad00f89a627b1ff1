#include "marlin/core/maddpg.hh"

#include <algorithm>
#include <cmath>
#include <numeric>
#include <sstream>

#include "marlin/base/logging.hh"
#include "marlin/base/serialize.hh"
#include "marlin/base/thread_pool.hh"
#include "marlin/nn/loss.hh"
#include "marlin/numeric/ops.hh"
#include "marlin/obs/metrics.hh"
#include "marlin/replay/gather.hh"

namespace marlin::core
{

using profile::Phase;
using profile::ScopedPhase;

namespace
{

/**
 * L2 norm accumulated in double regardless of Real: a diagnostic
 * read-out, deliberately outside the kernel layer so it can never
 * alter the training arithmetic.
 */
Real
l2Norm(const Matrix &m)
{
    double acc = 0.0;
    for (std::size_t k = 0; k < m.size(); ++k) {
        const double v = static_cast<double>(m.data()[k]);
        acc += v * v;
    }
    return static_cast<Real>(std::sqrt(acc));
}

obs::Counter &
nonFiniteTrips()
{
    static obs::Counter &trips =
        obs::Registry::instance().counter("health.nonfinite_trips");
    return trips;
}

} // namespace

CtdeTrainerBase::CtdeTrainerBase(std::vector<std::size_t> obs_dims,
                                 std::size_t act_dim,
                                 TrainConfig config,
                                 SamplerFactory sampler_factory,
                                 bool twin_critic)
    : _config(std::move(config)), obsDims(std::move(obs_dims)),
      actDim(act_dim), rng(_config.seed),
      epsilon(_config.epsilonStart, _config.epsilonEnd,
              _config.epsilonDecayEpisodes)
{
    MARLIN_ASSERT(!obsDims.empty(), "trainer needs at least one agent");
    MARLIN_ASSERT(actDim > 0, "trainer needs a nonzero action space");
    MARLIN_ASSERT(sampler_factory != nullptr,
                  "trainer needs a sampler factory");

    sumObsDims = std::accumulate(obsDims.begin(), obsDims.end(),
                                 std::size_t{0});
    jointDim = sumObsDims + obsDims.size() * actDim;

    // Independent per-agent streams, derived from the trainer seed
    // so a fixed seed still pins the whole run.
    SplitMix64 mix(_config.seed ^ 0xa6e57ee75ca1f3b9ULL);
    agentRngs.reserve(obsDims.size());
    for (std::size_t i = 0; i < obsDims.size(); ++i)
        agentRngs.emplace_back(mix.next());

    const bool continuous =
        _config.actionMode == ActionMode::Continuous;
    nets.reserve(obsDims.size());
    samplers.reserve(obsDims.size());
    for (std::size_t i = 0; i < obsDims.size(); ++i) {
        AgentNetworksConfig nc;
        nc.obsDim = obsDims[i];
        nc.actDim = actDim;
        nc.jointDim = jointDim;
        nc.hiddenDims = _config.hiddenDims;
        nc.lr = _config.lr;
        nc.twinCritic = twin_critic;
        nc.actorOutput = continuous ? nn::Activation::Tanh
                                    : nn::Activation::Identity;
        nets.push_back(std::make_unique<AgentNetworks>(nc, rng));
        samplers.push_back(sampler_factory());
        // Pre-size rank tables / priority scratch for the full
        // buffer so sampler-internal growth never allocates during
        // steady-state plans.
        samplers.back()->reserve(_config.bufferCapacity);
        if (continuous) {
            ouNoise.emplace_back(actDim, Real(0.15),
                                 _config.ouSigma);
        }
    }
}

std::vector<replay::TransitionShape>
CtdeTrainerBase::transitionShapes() const
{
    std::vector<replay::TransitionShape> shapes;
    shapes.reserve(obsDims.size());
    for (std::size_t d : obsDims)
        shapes.push_back({d, actDim});
    return shapes;
}

void
CtdeTrainerBase::selectActionsInto(
    const std::vector<std::vector<Real>> &obs, std::size_t episode,
    std::vector<int> &out)
{
    MARLIN_ASSERT(obs.size() == obsDims.size(),
                  "one observation per agent required");
    const Real eps = epsilon.value(episode);
    out.resize(obs.size());
    for (std::size_t i = 0; i < obs.size(); ++i) {
        if (rng.uniform() < eps) {
            out[i] = static_cast<int>(rng.randint(actDim));
            continue;
        }
        selObs.reshape(1, obsDims[i]);
        std::copy(obs[i].begin(), obs[i].end(), selObs.data());
        nets[i]->actor.forward(selObs, selOut);
        // Gumbel draw == sampling the softmax policy: the stochastic
        // policy itself provides exploration.
        out[i] = static_cast<int>(
            numeric::gumbelArgmaxRow(selOut, 0, rng));
    }
}

std::vector<int>
CtdeTrainerBase::greedyActions(
    const std::vector<std::vector<Real>> &obs)
{
    MARLIN_ASSERT(obs.size() == obsDims.size(),
                  "one observation per agent required");
    std::vector<int> actions(obs.size());
    for (std::size_t i = 0; i < obs.size(); ++i) {
        Matrix x(1, obsDims[i],
                 std::vector<Real>(obs[i].begin(), obs[i].end()));
        Matrix logits = nets[i]->actor.forward(x);
        actions[i] =
            static_cast<int>(numeric::argmaxRows(logits)[0]);
    }
    return actions;
}

void
CtdeTrainerBase::selectContinuousActionsInto(
    const std::vector<std::vector<Real>> &obs, std::size_t episode,
    std::vector<std::array<Real, 2>> &out)
{
    MARLIN_ASSERT(_config.actionMode == ActionMode::Continuous,
                  "trainer was built for discrete actions");
    MARLIN_ASSERT(obs.size() == obsDims.size(),
                  "one observation per agent required");
    out.resize(obs.size());
    for (std::size_t i = 0; i < obs.size(); ++i) {
        selObs.reshape(1, obsDims[i]);
        std::copy(obs[i].begin(), obs[i].end(), selObs.data());
        nets[i]->actor.forward(selObs, selOut); // Tanh-squashed.
        const auto &noise = ouNoise[i].step(rng);
        for (std::size_t c = 0; c < 2; ++c) {
            out[i][c] = std::clamp(selOut(0, c) + noise[c], Real(-1),
                                   Real(1));
        }
    }
    (void)episode;
}

std::vector<std::array<Real, 2>>
CtdeTrainerBase::greedyContinuousActions(
    const std::vector<std::vector<Real>> &obs)
{
    MARLIN_ASSERT(_config.actionMode == ActionMode::Continuous,
                  "trainer was built for discrete actions");
    MARLIN_ASSERT(obs.size() == obsDims.size(),
                  "one observation per agent required");
    std::vector<std::array<Real, 2>> actions(obs.size());
    for (std::size_t i = 0; i < obs.size(); ++i) {
        Matrix x(1, obsDims[i],
                 std::vector<Real>(obs[i].begin(), obs[i].end()));
        Matrix a = nets[i]->actor.forward(x);
        actions[i] = {a(0, 0), a(0, 1)};
    }
    return actions;
}

void
CtdeTrainerBase::onTransitionAdded(BufferIndex idx)
{
    for (auto &s : samplers)
        s->onAdd(idx);
}

UpdateStats
CtdeTrainerBase::update(const replay::ReplayStore &store,
                        profile::PhaseTimer &timer)
{
    MARLIN_ASSERT(store.numAgents() == obsDims.size(),
                  "store/trainer agent count mismatch");
    const std::size_t n = obsDims.size();
    if (scratchBatches.size() != n)
        scratchBatches.resize(n);
    if (workspaces.size() != n)
        workspaces.resize(n);

    // Serial prologue. Mini-batch sampling consumes the shared RNG
    // stream in agent order, and the cross-agent target-action pass
    // forwards every agent's target actor (whose forward() caches
    // activations), so both stay on the calling thread. Every agent
    // thus reads the same pre-update snapshot of all target policies
    // — the simultaneous-update semantics that make the per-agent
    // steps below independent.
    for (std::size_t i = 0; i < n; ++i) {
        UpdateWorkspace &ws = workspaces[i];
        {
            ScopedPhase sp(timer, Phase::Sampling);
            samplers[i]->planInto(store.size(), _config.batchSize,
                                  rng, ws.plan);
            store.gatherAll(ws.plan, scratchBatches[i]);
        }
        {
            ScopedPhase sp(timer, Phase::TargetQ);
            targetNextActionsInto(scratchBatches[i], agentRngs[i],
                                  ws.nextActions);
        }
    }

    // Per-agent critic+actor updates: agents own disjoint networks,
    // Adam moments, samplers, RNG streams and workspaces, and only
    // read the shared batches, so the pool runs them concurrently
    // and the result is bit-identical for any thread count.
    UpdateStats stats;
    base::ThreadPool &pool = base::ThreadPool::global();
    if (pool.numThreads() == 1 || n == 1) {
        for (std::size_t i = 0; i < n; ++i) {
            updateAgent(i, scratchBatches[i], workspaces[i], timer,
                        stats);
        }
    } else {
        for (std::size_t i = 0; i < n; ++i) {
            workspaces[i].stats = UpdateStats{};
            workspaces[i].timer.reset();
        }
        pool.parallelFor(
            0, n, 1, [this](std::size_t b0, std::size_t b1) {
                for (std::size_t i = b0; i < b1; ++i) {
                    updateAgent(i, scratchBatches[i], workspaces[i],
                                workspaces[i].timer,
                                workspaces[i].stats);
                }
            });
        // Deterministic reduction in agent order: phase CPU time
        // merges into the caller's timer and the losses sum in the
        // same sequence the serial loop would use.
        for (std::size_t i = 0; i < n; ++i) {
            timer.merge(workspaces[i].timer);
            stats.criticLoss += workspaces[i].stats.criticLoss;
            stats.actorLoss += workspaces[i].stats.actorLoss;
            stats.meanAbsTd += workspaces[i].stats.meanAbsTd;
            stats.criticGradNorm +=
                workspaces[i].stats.criticGradNorm;
            stats.actorGradNorm += workspaces[i].stats.actorGradNorm;
            stats.nonFiniteCount +=
                workspaces[i].stats.nonFiniteCount;
        }
    }

    const Real inv = Real(1) / static_cast<Real>(obsDims.size());
    stats.criticLoss *= inv;
    stats.actorLoss *= inv;
    stats.meanAbsTd *= inv;
    stats.criticGradNorm *= inv;
    stats.actorGradNorm *= inv;
    ++updates;
    return stats;
}

void
CtdeTrainerBase::targetNextActionsInto(
    const std::vector<AgentBatch> &batches, Rng &noise_rng,
    std::vector<Matrix> &out)
{
    (void)noise_rng; // MADDPG's target policies are noise-free.
    // The N x (N-1) cross-agent policy reads the paper describes:
    // every trainer evaluates every agent's target actor.
    const bool discrete =
        _config.actionMode == ActionMode::Discrete;
    out.resize(batches.size());
    for (std::size_t j = 0; j < batches.size(); ++j) {
        nets[j]->targetActor.forward(batches[j].nextObs, out[j]);
        // Discrete: softmax relaxation over logits. Continuous:
        // the Tanh output activation already squashes.
        if (discrete)
            numeric::softmaxRows(out[j]);
    }
}

void
CtdeTrainerBase::jointCurrentInto(
    const std::vector<AgentBatch> &batches,
    std::vector<const Matrix *> &scratch, Matrix &out) const
{
    scratch.clear();
    for (const AgentBatch &b : batches)
        scratch.push_back(&b.obs);
    for (const AgentBatch &b : batches)
        scratch.push_back(&b.actions);
    numeric::hconcatInto(scratch, out);
}

void
CtdeTrainerBase::jointNextInto(
    const std::vector<AgentBatch> &batches,
    const std::vector<Matrix> &next_actions,
    std::vector<const Matrix *> &scratch, Matrix &out) const
{
    scratch.clear();
    for (const AgentBatch &b : batches)
        scratch.push_back(&b.nextObs);
    for (const Matrix &a : next_actions)
        scratch.push_back(&a);
    numeric::hconcatInto(scratch, out);
}

void
CtdeTrainerBase::tdTargetInto(const AgentBatch &batch,
                              const Matrix &q_next, Matrix &y) const
{
    y.reshape(q_next.rows(), 1);
    for (std::size_t r = 0; r < q_next.rows(); ++r) {
        const Real not_done = Real(1) - batch.dones(r, 0);
        y(r, 0) = batch.rewards(r, 0) +
                  _config.gamma * not_done * q_next(r, 0);
    }
}

std::size_t
CtdeTrainerBase::actionColumn(std::size_t i) const
{
    return sumObsDims + i * actDim;
}

bool
CtdeTrainerBase::criticActorStep(std::size_t i,
                                 const std::vector<AgentBatch> &batches,
                                 UpdateWorkspace &ws, bool update_actor,
                                 UpdateStats &stats)
{
    AgentNetworks &net = *nets[i];
    const replay::IndexPlan &plan = ws.plan;
    jointCurrentInto(batches, ws.concat, ws.joint);
    const Matrix &joint = ws.joint;
    const Matrix &y = ws.y;
    const HealthGuardPolicy policy = _config.healthPolicy;

    // ---- Critic (Q loss) ----
    // Losses and loss gradients are computed before any backward /
    // optimizer call so a NaN or Inf can be caught while the weights
    // are still untouched.
    net.critic.forward(joint, ws.q1);
    Matrix &q1 = ws.q1;
    Matrix &dq = ws.dq;
    Real critic_loss;
    if (plan.weights.empty()) {
        critic_loss = nn::mseLoss(q1, y, dq);
    } else {
        critic_loss = nn::weightedMseLoss(q1, y, plan.weights, dq);
    }
    Matrix &dq2 = ws.dq2;
    if (net.critic2) {
        net.critic2->forward(joint, ws.q2);
        if (plan.weights.empty()) {
            critic_loss += nn::mseLoss(ws.q2, y, dq2);
        } else {
            critic_loss +=
                nn::weightedMseLoss(ws.q2, y, plan.weights, dq2);
        }
    }
    const bool critic_healthy =
        std::isfinite(critic_loss) && !numeric::hasNonFinite(dq) &&
        (net.critic2 == nullptr || !numeric::hasNonFinite(dq2));
    if (!critic_healthy) {
        ++stats.nonFiniteCount;
        nonFiniteTrips().add();
        if (policy != HealthGuardPolicy::Off) {
            // Poisoned TD errors must not reach the sampler
            // priorities either, so the whole agent step is dropped.
            net.criticOpt.zeroGrad();
            return false;
        }
    }
    net.critic.backward(joint, dq);
    if (net.critic2)
        net.critic2->backward(joint, dq2);
    net.criticOpt.step();
    stats.criticLoss += critic_loss;
    stats.criticGradNorm += l2Norm(dq);
    if (net.critic2)
        stats.criticGradNorm += l2Norm(dq2);

    // Refresh priorities from the fresh TD errors (no-op for
    // unprioritized samplers).
    nn::absTdErrorInto(q1, y, ws.td);
    if (!plan.priorityIds.empty())
        samplers[i]->updatePriorities(plan.priorityIds, ws.td);
    Real mean_td = 0;
    for (Real t : ws.td)
        mean_td += t;
    stats.meanAbsTd += mean_td / static_cast<Real>(ws.td.size());

    if (!update_actor)
        return critic_healthy;

    // ---- Actor (P loss) ----
    // Differentiable path: replace agent i's stored action block
    // with the current policy's action relaxation (softmax over
    // logits for discrete, tanh output for continuous), run the
    // critic, and backprop -Q through the critic input into the
    // actor.
    const bool discrete =
        _config.actionMode == ActionMode::Discrete;
    net.actor.forward(batches[i].obs, ws.logits);
    Matrix &logits = ws.logits;
    ws.soft = logits;
    Matrix &soft = ws.soft;
    if (discrete)
        numeric::softmaxRows(soft);

    // The critic's input again, now with soft in place of agent i's
    // stored actions: jointCurrentInto's parts with one swapped.
    MARLIN_ASSERT(ws.concat[batches.size() + i] == &batches[i].actions,
                  "ws.concat no longer holds the stored joint's parts");
    ws.concat[batches.size() + i] = &soft;
    numeric::hconcatInto(ws.concat, ws.jointPi);
    const std::size_t col = actionColumn(i);

    net.critic.forward(ws.jointPi, ws.qPi);
    const Real actor_loss = nn::policyLoss(ws.qPi, ws.dqPi);
    // The critic is frozen during the actor step: backprop computes
    // no critic gradient, and of the critic's input gradient only
    // agent i's action block.
    net.critic.backwardInput(ws.dqPi, col, col + actDim, ws.dSoft);
    Matrix &d_soft = ws.dSoft;

    Matrix &d_logits = ws.dLogits;
    if (discrete) {
        numeric::softmaxBackwardRows(soft, d_soft, d_logits);
        // Logit magnitude regularization (reference implementations
        // use mean(logits^2) * 1e-3) keeps the relaxation from
        // saturating.
        const Real reg =
            Real(2e-3) / static_cast<Real>(logits.size());
        for (std::size_t k = 0; k < d_logits.size(); ++k)
            d_logits.data()[k] += reg * logits.data()[k];
    } else {
        // Continuous: the actor's Tanh output activation owns the
        // squashing derivative inside backward().
        d_logits = d_soft;
    }

    const bool actor_healthy =
        std::isfinite(actor_loss) && !numeric::hasNonFinite(d_logits);
    if (!actor_healthy) {
        ++stats.nonFiniteCount;
        nonFiniteTrips().add();
        if (policy != HealthGuardPolicy::Off) {
            net.actorOpt.zeroGrad();
            return false;
        }
    }
    net.actor.backward(batches[i].obs, d_logits);
    net.actorOpt.step();
    stats.actorLoss += actor_loss;
    stats.actorGradNorm += l2Norm(d_logits);
    return critic_healthy && actor_healthy;
}

void
CtdeTrainerBase::saveRuntimeState(std::ostream &os) const
{
    writePod<std::uint64_t>(os, updates);
    writeRngState(os, rng.state());

    writePod<std::uint64_t>(os, agentRngs.size());
    for (const Rng &r : agentRngs)
        writeRngState(os, r.state());

    writePod<std::uint64_t>(os, ouNoise.size());
    for (const OrnsteinUhlenbeckNoise &n : ouNoise)
        writeVector(os, n.state());

    // Sampler state is opaque to this layer: each sampler serializes
    // into its own length-prefixed blob so a sampler with no state
    // (uniform) costs 8 bytes and stays skippable.
    writePod<std::uint64_t>(os, samplers.size());
    for (const auto &sampler : samplers) {
        std::ostringstream blob;
        sampler->saveState(blob);
        writeString(os, blob.str());
    }

    saveExtraState(os);
}

void
CtdeTrainerBase::loadRuntimeState(std::istream &is)
{
    updates = readPod<std::uint64_t>(is);
    rng.setState(readRngState(is));

    const auto n_rngs = readPod<std::uint64_t>(is);
    if (n_rngs != agentRngs.size()) {
        fatal("checkpoint has %llu agent RNG streams, trainer has %zu",
              static_cast<unsigned long long>(n_rngs),
              agentRngs.size());
    }
    for (Rng &r : agentRngs)
        r.setState(readRngState(is));

    const auto n_noise = readPod<std::uint64_t>(is);
    if (n_noise != ouNoise.size()) {
        fatal("checkpoint has %llu OU noise states, trainer has %zu",
              static_cast<unsigned long long>(n_noise),
              ouNoise.size());
    }
    for (OrnsteinUhlenbeckNoise &n : ouNoise)
        n.setState(readVector<Real>(is));

    const auto n_samplers = readPod<std::uint64_t>(is);
    if (n_samplers != samplers.size()) {
        fatal("checkpoint has %llu sampler states, trainer has %zu",
              static_cast<unsigned long long>(n_samplers),
              samplers.size());
    }
    for (auto &sampler : samplers) {
        std::istringstream blob(readString(is));
        sampler->loadState(blob);
    }

    loadExtraState(is);
}

MaddpgTrainer::MaddpgTrainer(std::vector<std::size_t> obs_dims,
                             std::size_t act_dim, TrainConfig config,
                             SamplerFactory sampler_factory)
    : CtdeTrainerBase(std::move(obs_dims), act_dim, std::move(config),
                      std::move(sampler_factory), false)
{
}

void
MaddpgTrainer::updateAgent(std::size_t i,
                           const std::vector<AgentBatch> &batches,
                           UpdateWorkspace &ws,
                           profile::PhaseTimer &timer,
                           UpdateStats &stats)
{
    {
        ScopedPhase sp(timer, Phase::TargetQ);
        jointNextInto(batches, ws.nextActions, ws.concat,
                      ws.jointNext);
        nets[i]->targetCritic.forward(ws.jointNext, ws.qNext);
        tdTargetInto(batches[i], ws.qNext, ws.y);
    }
    {
        ScopedPhase sp(timer, Phase::QPLoss);
        if (criticActorStep(i, batches, ws, true, stats))
            nets[i]->softUpdateTargets(_config.tau);
    }
}

} // namespace marlin::core

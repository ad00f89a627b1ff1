#include "marlin/async/actor_runner.hh"

#include <chrono>
#include <limits>
#include <thread>

#include "marlin/async/flow_id.hh"
#include "marlin/base/logging.hh"
#include "marlin/base/string_utils.hh"
#include "marlin/obs/trace.hh"

namespace marlin::async
{

using profile::Phase;
using profile::ScopedPhase;

namespace
{

/** Ring publishes are batched: one release store per this many
 *  generated transitions (and at every episode boundary). */
constexpr std::size_t publishBatch = 8;

} // namespace

ActorRunner::ActorRunner(
    ActorConfig config_in,
    std::vector<std::unique_ptr<env::Environment>> envs_in,
    std::unique_ptr<core::CtdeTrainerBase> policy_in,
    replay::TransitionRing &ring_in,
    const replay::JointTransitionLayout &layout_in,
    PolicySnapshot &snapshot_in, RunControl &control_in)
    : config(config_in), envs(std::move(envs_in)),
      policy(std::move(policy_in)), ring(ring_in), layout(layout_in),
      snapshot(snapshot_in), control(control_in)
{
    MARLIN_ASSERT(!envs.empty(), "actor needs at least one lane");
    lanes.resize(envs.size());
    for (std::size_t i = 0; i < envs.size(); ++i)
        lanes[i].env = envs[i].get();
}

bool
ActorRunner::claimEpisode(Lane &lane)
{
    std::uint64_t e = 0;
    if (!control.claim(e))
    {
        lane.active = false;
        return false;
    }
    // Episode boundary: the natural point to pick up new weights —
    // mid-episode swaps would mix two policies in one trajectory.
    if (snapshot.refresh(*policy, seenVersion))
        ++refreshes;
    snapshot.noteAdopted(config.actorId, seenVersion);
    lane.episode = e;
    lane.t = 0;
    lane.reward = 0;
    lane.env->resetInto(lane.obs);
    lane.active = true;
    return true;
}

void
ActorRunner::stepLane(Lane &lane)
{
    bool poisonRecord = false;
    if (injector != nullptr)
    {
        const base::ActorFaultAction fault =
            injector->onActorStep(config.actorId, steps + 1);
        if (fault.stallMs > 0)
            std::this_thread::sleep_for(
                std::chrono::milliseconds(fault.stallMs));
        poisonRecord = fault.corrupt;
        if (fault.kill)
            throw base::InjectedFault(csprintf(
                "chaos: kill actor %zu at local step %llu",
                config.actorId,
                static_cast<unsigned long long>(steps + 1)));
    }

    const std::size_t n = lane.env->numAgents();
    const bool continuous =
        config.actionMode == core::ActionMode::Continuous;
    const auto episode = static_cast<std::size_t>(lane.episode);

    {
        ScopedPhase sp(_timer, Phase::ActionSelection);
        if (continuous)
        {
            policy->selectContinuousActionsInto(lane.obs, episode,
                                                forceScratch);
        }
        else
        {
            policy->selectActionsInto(lane.obs, episode,
                                      actionScratch);
        }
    }

    env::StepResult &step = stepScratch;
    {
        ScopedPhase sp(_timer, Phase::EnvStep);
        if (continuous)
        {
            vecForceScratch.resize(n);
            for (std::size_t i = 0; i < n; ++i)
                vecForceScratch[i] = {forceScratch[i][0],
                                      forceScratch[i][1]};
            lane.env->stepContinuousInto(vecForceScratch, step);
        }
        else
        {
            lane.env->stepInto(actionScratch, step);
        }
    }
    ++steps;

    onehotScratch.resize(n);
    for (std::size_t i = 0; i < n; ++i)
    {
        if (continuous)
        {
            onehotScratch[i].assign(
                {forceScratch[i][0], forceScratch[i][1]});
        }
        else
        {
            onehotScratch[i].assign(lane.env->actionDim(), Real(0));
            onehotScratch[i][static_cast<std::size_t>(
                actionScratch[i])] = Real(1);
        }
    }

    {
        ScopedPhase sp(_timer, Phase::BufferAdd);
        // Flow tracing is gated on the active ring so the untraced
        // path pays no extra clock reads.
        obs::TraceRing *tr = obs::TraceRing::active();
        const std::uint64_t pushStartNs =
            tr != nullptr ? base::nowNsSinceStart() : 0;
        // Every generated transition consumes a sequence number;
        // a full ring drops the record but not the number, which is
        // exactly what the consumer's gap accounting measures.
        const std::uint64_t seq = nextSeq++;
        Real *rec = ring.tryBeginPush(seq);
        if (rec != nullptr)
        {
            replay::packRecord(rec, layout, lane.obs, onehotScratch,
                               step.rewards, step.observations,
                               step.dones);
            if (poisonRecord)
            {
                // Chaos: a corrupted sensor/reward pipeline. The
                // learner's quarantine must catch this at drain.
                rec[layout.agents[0].reward] =
                    std::numeric_limits<Real>::quiet_NaN();
            }
            ring.commitPush();
            if (tr != nullptr)
            {
                // Flow out: the learner's drain span of this exact
                // record carries the matching id (see flowId()).
                tr->record("actor_push", "async", pushStartNs,
                           base::nowNsSinceStart() - pushStartNs,
                           transitionFlowId(config.actorId, seq),
                           obs::FlowDir::Out);
            }
        }
        if (++sincePublish >= publishBatch)
        {
            ring.publish();
            sincePublish = 0;
        }
    }

    for (const Real r : step.rewards)
        lane.reward += r / static_cast<Real>(n);
    std::swap(lane.obs, step.observations);

    if (++lane.t >= config.maxEpisodeLength)
    {
        // Flush so the learner sees the full episode before its
        // reward is reported.
        ring.publish();
        sincePublish = 0;
        control.recordEpisode(lane.episode, lane.reward);
        lane.active = false;
    }
}

void
ActorRunner::awaitStart()
{
    if (control.startPending.load(std::memory_order_acquire) == 0)
        return;
    for (Lane &lane : lanes)
        claimEpisode(lane);
    control.startPending.fetch_sub(1, std::memory_order_acq_rel);
    while (control.startPending.load(std::memory_order_acquire) > 0 &&
           !control.stop.load(std::memory_order_acquire) &&
           !abortFlag.load(std::memory_order_acquire))
    {
        if (heartbeat != nullptr)
            heartbeat->beat();
        std::this_thread::sleep_for(std::chrono::microseconds(100));
    }
}

void
ActorRunner::run()
{
    if (!started)
    {
        started = true;
        awaitStart();
    }
    while (!control.stop.load(std::memory_order_acquire) &&
           !abortFlag.load(std::memory_order_acquire))
    {
        if (heartbeat != nullptr)
            heartbeat->beat();
        bool anyActive = false;
        for (Lane &lane : lanes)
        {
            if (!lane.active)
                claimEpisode(lane);
            if (lane.active)
            {
                stepLane(lane);
                anyActive = true;
            }
        }
        if (!anyActive)
        {
            if (control.done())
                break;
            // Every index is claimed but the run is not done: a
            // faulted peer may return episodes to the reclaim pool,
            // so stay available instead of retiring early.
            std::this_thread::sleep_for(
                std::chrono::microseconds(100));
        }
    }
    abandonActiveEpisodes();
    // Whatever is staged must reach the learner before this actor
    // reports itself retired (the learner's exit check relies on
    // "activeActors == 0 implies everything is published").
    ring.publish();
    retireOnce();
}

void
ActorRunner::abandonActiveEpisodes()
{
    for (Lane &lane : lanes)
    {
        if (!lane.active)
            continue;
        control.reclaim(lane.episode);
        lane.active = false;
    }
}

} // namespace marlin::async

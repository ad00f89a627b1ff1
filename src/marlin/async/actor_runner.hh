/**
 * @file
 * Rollout thread of the async runtime: owns a set of environment
 * lanes and a private policy clone, generates transitions and pushes
 * them into its SPSC ring without ever blocking on the learner.
 */

#ifndef MARLIN_ASYNC_ACTOR_RUNNER_HH
#define MARLIN_ASYNC_ACTOR_RUNNER_HH

#include <array>
#include <atomic>
#include <memory>
#include <vector>

#include "marlin/async/policy_snapshot.hh"
#include "marlin/async/run_control.hh"
#include "marlin/base/fault_injector.hh"
#include "marlin/base/worker_thread.hh"
#include "marlin/core/maddpg.hh"
#include "marlin/env/environment.hh"
#include "marlin/profile/timer.hh"
#include "marlin/replay/transition_ring.hh"

namespace marlin::async
{

/** Per-actor knobs, fixed for the run. */
struct ActorConfig
{
    std::size_t actorId = 0;
    /** Environment steps per episode (TrainConfig value). */
    std::size_t maxEpisodeLength = 25;
    /** Ring publishes are batched: one release store per this many
     *  generated transitions (and at every episode boundary). */
    std::size_t publishBatch = 8;
    core::ActionMode actionMode = core::ActionMode::Discrete;
};

/**
 * One rollout thread. The runner steps its lanes round-robin, one
 * env step per lane per sweep, so a multi-lane actor amortizes each
 * weight refresh and ring publish over several concurrent episodes.
 * Lanes are plain Environment instances stepped serially on this
 * thread — deliberately not VectorEnvironment, which would re-enter
 * the global ThreadPool from N actor threads at once (see
 * base/worker_thread.hh for why long-lived roles stay off the pool).
 *
 * Thread contract: run() is the thread body; everything else is
 * constructed before the thread starts and read after it joins.
 * Supervision additions: run() may be called again after the thread
 * it ran on died (restart with preserved lane/RNG/sequence state);
 * requestAbort() and forceRetire() are watchdog-side and safe while
 * the thread runs; abandonActiveEpisodes() returns in-flight
 * episode claims to the pool and is called either by run() itself
 * on clean exit or by the supervisor after joining a dead thread.
 */
class ActorRunner
{
  public:
    /**
     * @param envs The actor's environment lanes (>= 1), distinct
     *        seeds per lane.
     * @param policy Private trainer clone used only for action
     *        selection; its weights track the learner via @p snapshot.
     * @param ring This actor's producer side.
     */
    ActorRunner(ActorConfig config,
                std::vector<std::unique_ptr<env::Environment>> envs,
                std::unique_ptr<core::CtdeTrainerBase> policy,
                replay::TransitionRing &ring,
                const replay::JointTransitionLayout &layout,
                PolicySnapshot &snapshot, RunControl &control);

    /** Supervisor wiring; call before the thread starts. */
    void setHeartbeat(base::Heartbeat *hb) { heartbeat = hb; }
    void setFaultInjector(base::FaultInjector *fi) { injector = fi; }

    /** Thread body: roll out until the episode target or stop. */
    void run();

    /**
     * Watchdog: ask the runner to exit at the next sweep without
     * completing its episodes (degradation of a stalled actor).
     */
    void
    requestAbort()
    {
        abortFlag.store(true, std::memory_order_release);
    }

    /**
     * Return every active lane's claimed episode index to the
     * reclaim pool so a healthy actor can re-run it. Single-caller
     * at a time: either run() on its way out, or the supervisor
     * after joining this runner's dead thread.
     */
    void abandonActiveEpisodes();

    /**
     * Decrement activeActors exactly once over the runner's life,
     * no matter how many exit paths fire (clean retire, abort,
     * supervisor giving up on restarts).
     */
    void
    retireOnce()
    {
        if (!retiredFlag.exchange(true, std::memory_order_acq_rel))
            control.activeActors.fetch_sub(
                1, std::memory_order_release);
    }

    // Read after join.
    StepCount envSteps() const { return steps; }
    std::uint64_t weightRefreshes() const { return refreshes; }
    const profile::PhaseTimer &timer() const { return _timer; }

  private:
    struct Lane
    {
        env::Environment *env = nullptr;
        std::vector<std::vector<Real>> obs;
        std::uint64_t episode = 0; ///< Claimed global index.
        std::size_t t = 0;         ///< Step within the episode.
        Real reward = 0;
        bool active = false;
    };

    /** Claim the next episode for @p lane; false when none remain. */
    bool claimEpisode(Lane &lane);

    /**
     * At an armed start barrier (RunControl::startPending), claim
     * every lane's first episode, then wait until every actor has.
     */
    void awaitStart();

    /** One env step on @p lane; retires the episode at the limit. */
    void stepLane(Lane &lane);

    ActorConfig config;
    std::vector<std::unique_ptr<env::Environment>> envs;
    std::unique_ptr<core::CtdeTrainerBase> policy;
    replay::TransitionRing &ring;
    const replay::JointTransitionLayout &layout;
    PolicySnapshot &snapshot;
    RunControl &control;

    base::Heartbeat *heartbeat = nullptr;
    base::FaultInjector *injector = nullptr;
    std::atomic<bool> abortFlag{false};
    std::atomic<bool> retiredFlag{false};
    /** Set by the first run(); a restarted thread skips the barrier. */
    bool started = false;

    std::vector<Lane> lanes;
    std::uint64_t seenVersion = 0;
    std::uint64_t nextSeq = 0; ///< Stamped on every generated step.
    std::size_t sincePublish = 0;

    StepCount steps = 0;
    std::uint64_t refreshes = 0;
    profile::PhaseTimer _timer;

    // Step scratch shared across lanes (lanes run serially).
    env::StepResult stepScratch;
    std::vector<int> actionScratch;
    std::vector<std::array<Real, 2>> forceScratch;
    std::vector<env::Vec2> vecForceScratch;
    std::vector<std::vector<Real>> onehotScratch;
};

} // namespace marlin::async

#endif // MARLIN_ASYNC_ACTOR_RUNNER_HH

/**
 * @file
 * Orchestrator of the async actor-learner runtime: N rollout threads
 * feeding one learner thread through per-actor SPSC transition rings,
 * supervised by a watchdog on the orchestrating thread.
 *
 * This is the decoupled counterpart of core::TrainLoop. The lockstep
 * loop serializes action selection, environment stepping, replay
 * insertion and the update into one thread; here rollout and update
 * overlap, so env-steps/s scales with the actor count while the
 * learner consumes at its own pace. The price is determinism: actors
 * train on snapshots that lag the learner, episodes complete in
 * nondeterministic order, and a full ring drops transitions (counted,
 * never silent). Runs that need bit-identical replay — determinism
 * suites, kill/resume — keep using core::TrainLoop, which remains
 * the 1-actor synchronous configuration of the CLI.
 *
 * Fault tolerance (see supervisor.hh): every worker runs under the
 * supervisor's watchdog — crashed actors are restarted with their
 * lane/RNG/sequence state (bounded retries), then degraded; their
 * in-flight episodes return to a reclaim pool so the surviving fleet
 * still completes the configured run length. NaN/Inf transitions are
 * quarantined at the learner's drain point. With a checkpoint
 * directory configured, the learner writes rotating full-state
 * snapshots; resume restores networks, optimizer, RNG streams,
 * replay contents and the contiguous completed-episode prefix, then
 * restarts the whole actor fleet. Async resume is throughput-
 * equivalent, not bit-identical (episode order, drop patterns and
 * snapshot lag all differ run to run); the lockstep --actors 1
 * kill/resume contract stays bit-exact and untouched.
 */

#ifndef MARLIN_ASYNC_ASYNC_TRAIN_LOOP_HH
#define MARLIN_ASYNC_ASYNC_TRAIN_LOOP_HH

#include <functional>
#include <memory>
#include <string>

#include "marlin/async/policy_snapshot.hh"
#include "marlin/async/run_control.hh"
#include "marlin/base/fault_injector.hh"
#include "marlin/core/maddpg.hh"
#include "marlin/env/environment.hh"
#include "marlin/obs/telemetry.hh"
#include "marlin/replay/sharded_store.hh"
#include "marlin/replay/transition_ring.hh"

namespace marlin::async
{

/** Shape of the async runtime, fixed for the run. */
struct AsyncConfig
{
    /** Rollout threads. */
    std::size_t actors = 2;
    /** Environment lanes per actor (concurrent episodes). */
    std::size_t lanesPerActor = 1;
    /** Transition records per actor ring (rounded up to 2^k). */
    std::size_t ringCapacity = 4096;

    // Supervision policy (see SupervisorConfig).
    /** Actor-stall watchdog deadline; 0 disables stall detection. */
    std::uint64_t watchdogDeadlineMs = 250;
    /** Stall length that degrades an actor; 0 = 4x the deadline. */
    std::uint64_t degradeAfterMs = 0;
    /** Crash restarts per actor before degrading it. */
    std::size_t maxActorRestarts = 2;

    // Checkpointing (learner-side, rotating; see learner_runner.hh).
    /** Directory for latest/previous snapshots; empty disables. */
    std::string checkpointDir;
    /** Learner updates between periodic snapshots (0: final-only). */
    std::size_t checkpointEveryUpdates = 0;
    /** Resume from checkpointDir before training (no-op when no
     *  checkpoint exists yet). */
    bool resume = false;
};

/** Outcome of an async training run. */
struct AsyncTrainResult
{
    /**
     * Mean episode return ordered by global episode index (claim
     * order — which actor ran an episode is nondeterministic, the
     * index sequence is not).
     */
    std::vector<Real> episodeRewards;
    /** Actor + learner phase accounting, merged after the join. */
    profile::PhaseTimer timer;
    /** Transitions generated by the actors (pushed + dropped). */
    StepCount envSteps = 0;
    /** Transitions the learner inserted into replay. */
    StepCount drainedSteps = 0;
    StepCount updateCalls = 0;
    /** Mean reward over the final 10% of episodes. */
    Real finalScore = 0;
    bool halted = false;
    std::size_t nonFiniteUpdates = 0;
    /** Weight refreshes actors picked up, summed over actors. */
    std::uint64_t weightRefreshes = 0;
    // Ring accounting summed over all rings.
    std::uint64_t ringPushed = 0;
    std::uint64_t ringDropped = 0;
    std::uint64_t ringSeqGaps = 0;
    /** Records still in the rings after the join (only nonzero when
     *  the learner died or the run degraded to a halt); with
     *  quarantine, pushed == drained + quarantined + residual. */
    std::uint64_t ringResidual = 0;

    // Supervision outcome.
    std::uint64_t restarts = 0;
    std::uint64_t degradations = 0;
    std::uint64_t watchdogTrips = 0;
    std::uint64_t quarantined = 0;
    bool learnerFailed = false;
    std::string learnerError;

    // Checkpointing outcome.
    std::uint64_t checkpointsSaved = 0;
    /** Episodes restored from the checkpoint (0 = fresh run). */
    std::uint64_t resumedFromEpisode = 0;
};

/**
 * Owns the replay storage, rings, threads and supervisor of one
 * async run.
 *
 * The caller supplies factories instead of instances because each
 * actor needs its own environment lanes and its own policy clone
 * (trainer-shaped, used only for action selection): sharing either
 * across threads would reintroduce the lockstep serialization this
 * runtime exists to remove. The Rollback health policy remains a
 * lockstep-loop feature (it needs the synchronous checkpoint/restore
 * cycle); asking for it here is a configuration error.
 */
class AsyncTrainLoop
{
  public:
    /** Builds one environment lane; must honor the seed. */
    using EnvFactory =
        std::function<std::unique_ptr<env::Environment>(
            std::uint64_t seed)>;
    /** Builds one actor's private policy clone (same architecture
     *  as the learner trainer); the seed decorrelates exploration. */
    using PolicyFactory =
        std::function<std::unique_ptr<core::CtdeTrainerBase>(
            std::uint64_t seed)>;

    /**
     * @param trainer The learner's trainer (not owned); its weights
     *        are the ground truth actors sync from.
     */
    AsyncTrainLoop(core::CtdeTrainerBase &trainer,
                   EnvFactory env_factory,
                   PolicyFactory policy_factory,
                   core::TrainConfig config, AsyncConfig async);

    /**
     * Stream learner-side telemetry: one step record per
     * @p every_steps drained transitions. Ring, latency and
     * supervision accounting travel in each record's registry
     * snapshot (async.*, supervisor.*). Not owned; pass nullptr to
     * detach.
     */
    void setTelemetry(obs::TelemetryWriter *writer,
                      std::size_t every_steps = 1);

    /**
     * Attach a chaos source (not owned; arm its schedule before
     * run()). Worker threads poll it at their hook points; the
     * supervisor mirrors its trip counters into the obs registry.
     */
    void setFaultInjector(base::FaultInjector *injector_in)
    {
        injector = injector_in;
    }

    /**
     * Invoked once per supervisor watchdog tick during run() (see
     * Supervisor::setPollHook). The CLI services its --stats-port
     * /metrics endpoint here — off the actor/learner hot paths.
     */
    void setSupervisorHook(std::function<void()> hook)
    {
        supervisorHook = std::move(hook);
    }

    /** Train until @p episodes episodes complete; joins all threads
     *  before returning. */
    AsyncTrainResult run(std::size_t episodes);

    /** Active replay storage (per-agent or sharded/out-of-core). */
    const replay::ReplayStore &buffer() const { return *store; }

  private:
    core::CtdeTrainerBase &trainer;
    EnvFactory envFactory;
    PolicyFactory policyFactory;
    core::TrainConfig config;
    AsyncConfig async;
    /** The one replay store (see core::makeReplayStore). */
    std::unique_ptr<replay::ReplayStore> store;
    replay::JointTransitionLayout layout;
    obs::TelemetryWriter *telemetry = nullptr;
    std::size_t telemetryEvery = 1;
    base::FaultInjector *injector = nullptr;
    std::function<void()> supervisorHook;
};

} // namespace marlin::async

#endif // MARLIN_ASYNC_ASYNC_TRAIN_LOOP_HH

/**
 * @file
 * End-to-end training loop with the paper's phase structure:
 * action selection -> environment step -> replay insertion ->
 * (periodically) update all trainers.
 *
 * The loop is crash-safe: with checkpointing enabled it rotates a
 * full-state snapshot (networks, replay, RNG streams, progress)
 * every N episodes, auto-resumes from the newest loadable snapshot,
 * and a run killed at an arbitrary step then resumed reproduces the
 * uninterrupted run's episode rewards bit-for-bit.
 */

#ifndef MARLIN_CORE_TRAIN_LOOP_HH
#define MARLIN_CORE_TRAIN_LOOP_HH

#include <functional>
#include <memory>

#include "marlin/core/checkpoint.hh"
#include "marlin/core/trainer.hh"
#include "marlin/env/environment.hh"
#include "marlin/obs/telemetry.hh"

namespace marlin::core
{

/** Outcome of a training run. */
struct TrainResult
{
    /**
     * Mean (over agents) episode return, one entry per episode —
     * including episodes restored from a checkpoint on resume, so a
     * resumed run's vector lines up with an uninterrupted one.
     */
    std::vector<Real> episodeRewards;
    /** Accumulated phase timings for the whole run. */
    profile::PhaseTimer timer;
    StepCount envSteps = 0;
    StepCount updateCalls = 0;
    /** Mean reward over the final 10% of episodes. */
    Real finalScore = 0;
    /** An armed fault injector killed the run mid-episode. */
    bool killed = false;
    /** A health guard stopped the run (Halt, or rollback budget). */
    bool halted = false;
    /** Agent updates that saw a non-finite loss or gradient. */
    std::size_t nonFiniteUpdates = 0;
    /** Checkpoint rollbacks taken by HealthGuardPolicy::Rollback. */
    std::size_t rollbacks = 0;
    /** Episode the run resumed from (0 when started fresh). */
    std::size_t resumedFromEpisode = 0;
    /**
     * Allocation discipline of the steady-state regime (every step
     * after warm-up and the first full policy-delay cycle), measured
     * by base::AllocGuard around the step body: action selection,
     * env step, replay insertion and the trainer update. Telemetry,
     * checkpointing and fault-injection bookkeeping sit outside the
     * guarded region. A healthy build reports zero allocations.
     */
    StepCount steadyStateSteps = 0;
    std::uint64_t steadyStateAllocs = 0;
    std::uint64_t steadyStateAllocBytes = 0;
};

/** Per-episode progress callback. */
struct EpisodeInfo
{
    std::size_t episode = 0;
    Real meanReward = 0;
    Real epsilonUnused = 0;
};

using EpisodeCallback = std::function<void(const EpisodeInfo &)>;

/** Where and how often the loop checkpoints itself. */
struct CheckpointOptions
{
    /** Directory for latest/previous rotation; empty disables. */
    std::string dir;
    /** Episodes between snapshots. */
    std::size_t everyEpisodes = 1;
    /** Try resumeLatest() before training starts. */
    bool resume = true;
};

/**
 * The replay store @p config selects for @p shapes: a ShardedStore
 * when the backend is Sharded or any shard/cold-tier knob is set,
 * otherwise the per-agent MultiAgentBuffer.
 */
std::unique_ptr<replay::ReplayStore>
makeReplayStore(const TrainConfig &config,
                std::vector<replay::TransitionShape> shapes);

/**
 * One telemetry step record, the shape both the lockstep loop and
 * the async learner emit: the progress counters, each phase's
 * nanoseconds since @p last_ns (which advances to @p timer's
 * totals), and the losses in @p stats (null before the first
 * update). obs knows neither phases nor UpdateStats; they meet here.
 */
obs::StepRecord
makeStepRecord(std::uint64_t episode, std::uint64_t env_step,
               std::uint64_t update_calls,
               const profile::PhaseTimer &timer,
               std::array<std::uint64_t, profile::numPhases> &last_ns,
               const UpdateStats *stats);

/** Owns the replay storage and drives the environment/trainer pair. */
class TrainLoop
{
  public:
    /**
     * @param environment Environment to train in (not owned).
     * @param trainer MADDPG/MATD3 trainer (not owned).
     * @param config Must match the trainer's config.
     */
    TrainLoop(env::Environment &environment, Trainer &trainer,
              TrainConfig config);

    /**
     * Enable rotating full-state checkpoints. Requires a trainer
     * derived from CtdeTrainerBase (both shipped algorithms are).
     */
    void setCheckpointing(CheckpointOptions options);

    /**
     * Stream one telemetry step record every @p every_steps
     * environment steps (plus the run summary from the final
     * record). The writer is a pure observer — training numerics,
     * RNG streams and checkpoint bytes are identical with or without
     * it. Not owned; pass nullptr to detach.
     */
    void setTelemetry(obs::TelemetryWriter *writer,
                      std::size_t every_steps = 1);

    /**
     * Attach a fault injector: the loop polls onStep() once per
     * environment step and abandons the run (result.killed) when a
     * kill fires, without any cleanup — on-disk state is left
     * exactly as a SIGKILL would leave it. The injector is also
     * consulted for checkpoint write failures. Not owned; pass
     * nullptr to detach.
     */
    void setFaultInjector(base::FaultInjector *injector);

    /**
     * Train until @p episodes episodes have completed (including
     * episodes restored on resume). Progress lives in the loop, so
     * a kill + fresh TrainLoop + resume continues where the last
     * checkpoint left off.
     */
    TrainResult run(std::size_t episodes,
                    const EpisodeCallback &callback = nullptr);

    /** The replay storage the trainer samples from. */
    const replay::ReplayStore &replayStore() const { return *store; }

    /** Episodes completed so far (survives checkpoint/resume). */
    std::size_t episodesCompleted() const
    {
        return static_cast<std::size_t>(progress.episodeIndex);
    }

  private:
    env::Environment &environment;
    Trainer &trainer;
    TrainConfig config;
    /** The one replay store (see makeReplayStore; never null). */
    std::unique_ptr<replay::ReplayStore> store;
    /** Resumable run progress (serialized in the LOOP section). */
    LoopProgress progress;
    CheckpointOptions ckptOptions;
    base::FaultInjector *injector = nullptr;
    obs::TelemetryWriter *telemetry = nullptr;
    std::size_t telemetryEvery = 1;

    /**
     * Phase accumulator values at the last telemetry record, so each
     * record carries per-phase deltas rather than running totals.
     */
    std::array<std::uint64_t, profile::numPhases> telemetryLastNs{};
    /** Last trainer update's stats, for the next step record. */
    UpdateStats telemetryLastStats;
    bool telemetryHaveStats = false;

    /** Emit one step record if the cadence says so. */
    void maybeEmitTelemetry(const TrainResult &result);

    /**
     * Trainer updates performed by THIS process (deliberately not
     * serialized): a run resumed from a checkpoint inherits
     * progress.updateCalls but cold scratch buffers, so the
     * steady-state allocation guard must wait for live updates to
     * warm them, not restored ones.
     */
    StepCount liveUpdates = 0;

    // Step-loop scratch, retained across steps and episodes so the
    // steady-state step body performs no heap allocation. The
    // current observations swap with the step result's observation
    // buffers each step, so both sides keep their capacity.
    std::vector<std::vector<Real>> obs;
    env::StepResult stepScratch;
    std::vector<int> actionScratch;
    std::vector<std::array<Real, 2>> forceScratch;
    std::vector<env::Vec2> vecForceScratch;
    std::vector<std::vector<Real>> onehotScratch;

    /** RunState bundle over this loop's members. */
    RunState runState(CtdeTrainerBase *ctde);

    /** Fill result from progress and compute the final score. */
    TrainResult &finish(TrainResult &result);
};

} // namespace marlin::core

#endif // MARLIN_CORE_TRAIN_LOOP_HH

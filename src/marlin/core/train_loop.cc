#include "marlin/core/train_loop.hh"

#include <cstdlib>
#include <optional>

#include "marlin/base/alloc_guard.hh"
#include "marlin/base/logging.hh"
#include "marlin/obs/metrics.hh"
#include "marlin/replay/sharded_store.hh"

namespace marlin::core
{

using profile::Phase;
using profile::ScopedPhase;

namespace
{

std::vector<replay::TransitionShape>
shapesFor(const env::Environment &environment,
          const TrainConfig &config)
{
    // Continuous control stores the 2D force instead of a one-hot.
    const std::size_t act_dim =
        config.actionMode == ActionMode::Continuous
            ? 2
            : environment.actionDim();
    std::vector<replay::TransitionShape> shapes;
    shapes.reserve(environment.numAgents());
    for (std::size_t i = 0; i < environment.numAgents(); ++i)
        shapes.push_back({environment.obsDim(i), act_dim});
    return shapes;
}

} // namespace

std::unique_ptr<replay::ReplayStore>
makeReplayStore(const TrainConfig &config,
                std::vector<replay::TransitionShape> shapes)
{
    // Shard/cold-dir knobs imply the sharded backend even when the
    // caller left config.backend at its PerAgent default.
    const bool sharded = config.backend == SamplingBackend::Sharded ||
                         config.replayShards > 1 ||
                         !config.replayColdDir.empty();
    if (!sharded)
        return std::make_unique<replay::MultiAgentBuffer>(
            std::move(shapes), config.bufferCapacity);
    replay::ShardedStoreConfig sc;
    sc.shards = config.replayShards;
    sc.hotCapacity = config.replayHotCapacity;
    sc.coldDir = config.replayColdDir;
    return std::make_unique<replay::ShardedStore>(
        std::move(shapes), config.bufferCapacity, sc);
}

obs::StepRecord
makeStepRecord(std::uint64_t episode, std::uint64_t env_step,
               std::uint64_t update_calls,
               const profile::PhaseTimer &timer,
               std::array<std::uint64_t, profile::numPhases> &last_ns,
               const UpdateStats *stats)
{
    obs::StepRecord rec;
    rec.episode = episode;
    rec.envStep = env_step;
    rec.updateCalls = update_calls;
    rec.phaseNs.reserve(profile::numPhases);
    for (std::size_t p = 0; p < profile::numPhases; ++p) {
        const auto phase = static_cast<Phase>(p);
        const std::uint64_t total = timer.nanoseconds(phase);
        rec.phaseNs.emplace_back(profile::phaseName(phase),
                                 total - last_ns[p]);
        last_ns[p] = total;
    }
    if (stats != nullptr) {
        rec.haveLosses = true;
        rec.criticLoss = static_cast<double>(stats->criticLoss);
        rec.actorLoss = static_cast<double>(stats->actorLoss);
        rec.meanAbsTd = static_cast<double>(stats->meanAbsTd);
        rec.criticGradNorm =
            static_cast<double>(stats->criticGradNorm);
        rec.actorGradNorm = static_cast<double>(stats->actorGradNorm);
    }
    return rec;
}

TrainLoop::TrainLoop(env::Environment &environment_in,
                     CtdeTrainerBase &trainer_in,
                     TrainConfig config_in)
    : environment(environment_in), trainer(trainer_in),
      config(std::move(config_in)),
      store(makeReplayStore(config, shapesFor(environment, config)))
{
    MARLIN_ASSERT(trainer.numAgents() == environment.numAgents(),
                  "trainer/environment agent count mismatch");
}

void
TrainLoop::setCheckpointing(CheckpointOptions options)
{
    if (!options.dir.empty()) {
        MARLIN_ASSERT(options.everyEpisodes > 0,
                      "checkpoint cadence must be at least 1");
    }
    ckptOptions = std::move(options);
}

void
TrainLoop::setFaultInjector(base::FaultInjector *injector_in)
{
    injector = injector_in;
}

void
TrainLoop::setTelemetry(obs::TelemetryWriter *writer,
                        std::size_t every_steps)
{
    telemetry = writer;
    telemetryEvery = every_steps > 0 ? every_steps : 1;
    telemetryLastNs.fill(0);
    telemetryHaveStats = false;
}

void
TrainLoop::maybeEmitTelemetry(const TrainResult &result)
{
    if (telemetry == nullptr ||
        progress.envSteps % telemetryEvery != 0)
        return;
    telemetry->writeStep(makeStepRecord(
        progress.episodeIndex, progress.envSteps,
        progress.updateCalls, result.timer, telemetryLastNs,
        telemetryHaveStats ? &telemetryLastStats : nullptr));
}

RunState
TrainLoop::runState()
{
    RunState state;
    state.trainer = &trainer;
    state.replay = store.get();
    state.environment = &environment;
    state.progress = &progress;
    return state;
}

TrainResult &
TrainLoop::finish(TrainResult &result)
{
    result.episodeRewards = progress.episodeRewards;
    result.envSteps = progress.envSteps;
    result.updateCalls = progress.updateCalls;
    const std::size_t done = result.episodeRewards.size();
    if (done > 0) {
        // Final score: mean over the last 10% (at least one episode).
        const std::size_t tail = std::max<std::size_t>(1, done / 10);
        Real total = 0;
        for (std::size_t e = done - tail; e < done; ++e)
            total += result.episodeRewards[e];
        result.finalScore = total / static_cast<Real>(tail);
    }
    if (telemetry != nullptr) {
        telemetry->writeSummary({
            {"episodes", static_cast<double>(done)},
            {"env_steps", static_cast<double>(result.envSteps)},
            {"update_calls",
             static_cast<double>(result.updateCalls)},
            {"final_score",
             static_cast<double>(result.finalScore)},
            {"nonfinite_updates",
             static_cast<double>(result.nonFiniteUpdates)},
            {"rollbacks", static_cast<double>(result.rollbacks)},
            {"killed", result.killed ? 1.0 : 0.0},
            {"halted", result.halted ? 1.0 : 0.0},
        });
    }
    return result;
}

TrainResult
TrainLoop::run(std::size_t episodes, const EpisodeCallback &callback)
{
    TrainResult result;
    const std::size_t n = environment.numAgents();
    const bool checkpointing = !ckptOptions.dir.empty();

    if (config.healthPolicy == HealthGuardPolicy::Rollback &&
        !checkpointing) {
        fatal("HealthGuardPolicy::Rollback requires a checkpoint "
              "directory (TrainLoop::setCheckpointing)");
    }

    if (checkpointing && ckptOptions.resume) {
        const CkptResult resumed =
            resumeLatest(ckptOptions.dir, runState());
        if (resumed) {
            result.resumedFromEpisode =
                static_cast<std::size_t>(progress.episodeIndex);
            inform("resumed from '%s' at episode %llu",
                   resumed.path.c_str(),
                   static_cast<unsigned long long>(
                       progress.episodeIndex));
        } else if (resumed.error != CkptError::NotFound) {
            // Both generations exist but neither loads: refuse to
            // train on, or the rotation would overwrite the only
            // evidence of what went wrong.
            fatal("no usable checkpoint in '%s' (%s: %s)",
                  ckptOptions.dir.c_str(),
                  ckptErrorName(resumed.error),
                  resumed.detail.c_str());
        }
    }

    // Rollback budget for this run() call. Deliberately not part of
    // the serialized progress: a rollback restores pre-poisoning
    // state, so a resumed process fairly starts with a fresh budget.
    std::size_t rollbacks_left = config.healthMaxRollbacks;

    // MARLIN_ALLOC_GUARD=1 hardens the steady-state contract: the
    // first heap allocation inside a guarded step body aborts the
    // process (used by the Release CI leg). Default is Count mode,
    // which only feeds the alloc.steady_state_* gauges.
    const char *guard_env = std::getenv("MARLIN_ALLOC_GUARD");
    const base::AllocGuard::Mode guard_mode =
        (guard_env != nullptr && guard_env[0] == '1')
            ? base::AllocGuard::Mode::Forbid
            : base::AllocGuard::Mode::Count;
    // Gauge registration takes the registry lock; fetch the
    // references here, outside any guarded region.
    obs::Gauge &alloc_count_gauge =
        obs::Registry::instance().gauge("alloc.steady_state_count");
    obs::Gauge &alloc_bytes_gauge =
        obs::Registry::instance().gauge("alloc.steady_state_bytes");

    while (progress.episodeIndex < episodes) {
        const auto episode =
            static_cast<std::size_t>(progress.episodeIndex);
        environment.resetInto(obs);
        Real episode_reward = 0;
        bool rolled_back = false;

        for (std::size_t t = 0; t < config.maxEpisodeLength; ++t) {
            if (injector != nullptr && injector->onStep()) {
                // Simulated SIGKILL: abandon everything in memory.
                // On-disk checkpoints are whatever the last
                // completed rotation left behind.
                result.killed = true;
                return finish(result);
            }
            const bool continuous =
                config.actionMode == ActionMode::Continuous;

            // Steady state: this process has performed enough live
            // updates that every lazily-grown buffer is warm — at
            // least one full policy-delay cycle, since MATD3's actor
            // path first runs on update policyDelay and only then is
            // its scratch sized. Restored progress.updateCalls does
            // not count: a resumed process starts with cold scratch.
            const bool steady =
                liveUpdates >
                static_cast<StepCount>(config.policyDelay);
            std::optional<base::AllocGuard> guard;
            if (steady)
                guard.emplace(guard_mode);

            std::vector<int> &actions = actionScratch;
            std::vector<std::array<Real, 2>> &forces = forceScratch;
            {
                ScopedPhase sp(result.timer, Phase::ActionSelection);
                if (continuous) {
                    trainer.selectContinuousActionsInto(obs, episode,
                                                        forces);
                } else {
                    trainer.selectActionsInto(obs, episode, actions);
                }
            }

            env::StepResult &step = stepScratch;
            {
                ScopedPhase sp(result.timer, Phase::EnvStep);
                if (continuous) {
                    vecForceScratch.resize(n);
                    for (std::size_t i = 0; i < n; ++i)
                        vecForceScratch[i] = {forces[i][0],
                                              forces[i][1]};
                    environment.stepContinuousInto(vecForceScratch,
                                                   step);
                } else {
                    environment.stepInto(actions, step);
                }
            }
            ++progress.envSteps;

            onehotScratch.resize(n);
            std::vector<std::vector<Real>> &onehots = onehotScratch;
            for (std::size_t i = 0; i < n; ++i) {
                if (continuous) {
                    onehots[i].assign({forces[i][0], forces[i][1]});
                } else {
                    onehots[i].assign(environment.actionDim(),
                                      Real(0));
                    onehots[i][static_cast<std::size_t>(
                        actions[i])] = Real(1);
                }
            }
            {
                ScopedPhase sp(result.timer, Phase::BufferAdd);
                const BufferIndex slot = store->writeCursor();
                store->append(obs, onehots, step.rewards,
                              step.observations, step.dones);
                trainer.onTransitionAdded(slot);
            }
            ++progress.insertionsSinceUpdate;

            for (Real r : step.rewards)
                episode_reward += r / static_cast<Real>(n);
            // Swap rather than move: both sides keep their heap
            // capacity, so the next stepInto reuses the buffers.
            std::swap(obs, step.observations);

            const bool warm =
                store->size() >= config.warmupTransitions &&
                store->size() >=
                    static_cast<BufferIndex>(config.batchSize);
            bool did_update = false;
            UpdateStats stats;
            if (warm && progress.insertionsSinceUpdate >=
                            config.updateEvery) {
                progress.insertionsSinceUpdate = 0;
                stats = trainer.update(*store, result.timer);
                ++progress.updateCalls;
                ++liveUpdates;
                did_update = true;
            }

            // The guarded region ends here: telemetry, the health
            // policy's rollback machinery and checkpointing are
            // cold-path observers, free to allocate.
            if (guard.has_value()) {
                ++result.steadyStateSteps;
                result.steadyStateAllocs += guard->allocations();
                result.steadyStateAllocBytes += guard->bytes();
                guard.reset();
                alloc_count_gauge.set(static_cast<double>(
                    result.steadyStateAllocs));
                alloc_bytes_gauge.set(static_cast<double>(
                    result.steadyStateAllocBytes));
            }

            if (did_update) {
                telemetryLastStats = stats;
                telemetryHaveStats = true;
                if (stats.nonFiniteCount > 0) {
                    result.nonFiniteUpdates += stats.nonFiniteCount;
                    switch (config.healthPolicy) {
                      case HealthGuardPolicy::Off:
                      case HealthGuardPolicy::SkipUpdate:
                        // Off applied the poisoned update anyway;
                        // SkipUpdate already dropped it inside the
                        // trainer. Either way the run continues.
                        break;
                      case HealthGuardPolicy::Halt:
                        warn("non-finite loss/gradient in update "
                             "%llu: halting",
                             static_cast<unsigned long long>(
                                 progress.updateCalls));
                        result.halted = true;
                        return finish(result);
                      case HealthGuardPolicy::Rollback: {
                        if (rollbacks_left == 0) {
                            warn("non-finite loss/gradient persists "
                                 "after %zu rollbacks: halting",
                                 config.healthMaxRollbacks);
                            result.halted = true;
                            return finish(result);
                        }
                        --rollbacks_left;
                        ++result.rollbacks;
                        const CkptResult restored = resumeLatest(
                            ckptOptions.dir, runState());
                        if (!restored) {
                            warn("rollback found no usable "
                                 "checkpoint (%s): halting",
                                 ckptErrorName(restored.error));
                            result.halted = true;
                            return finish(result);
                        }
                        warn("non-finite loss/gradient: rolled "
                             "back to '%s' (episode %llu)",
                             restored.path.c_str(),
                             static_cast<unsigned long long>(
                                 progress.episodeIndex));
                        rolled_back = true;
                        break;
                      }
                    }
                }
            }
            if (rolled_back)
                break;
            maybeEmitTelemetry(result);
        }

        if (rolled_back)
            continue; // Progress was reloaded; restart from there.

        progress.episodeRewards.push_back(episode_reward);
        ++progress.episodeIndex;
        if (callback)
            callback({episode, episode_reward});

        if (checkpointing &&
            progress.episodeIndex % ckptOptions.everyEpisodes == 0) {
            const CkptResult saved = saveRotating(
                ckptOptions.dir, runState(), injector);
            if (!saved) {
                warn("checkpoint at episode %llu failed (%s: %s); "
                     "training continues on the previous snapshot",
                     static_cast<unsigned long long>(
                         progress.episodeIndex),
                     ckptErrorName(saved.error),
                     saved.detail.c_str());
            }
        }
    }

    return finish(result);
}

} // namespace marlin::core

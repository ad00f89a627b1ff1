#include "marlin/async/async_train_loop.hh"

#include <algorithm>
#include <string>

#include "marlin/async/actor_runner.hh"
#include "marlin/async/learner_runner.hh"
#include "marlin/async/supervisor.hh"
#include "marlin/base/logging.hh"
#include "marlin/core/checkpoint.hh"
#include "marlin/core/train_loop.hh"
#include "marlin/obs/metrics.hh"

namespace marlin::async
{

AsyncTrainLoop::AsyncTrainLoop(core::CtdeTrainerBase &trainer_in,
                               EnvFactory env_factory,
                               PolicyFactory policy_factory,
                               core::TrainConfig config_in,
                               AsyncConfig async_in)
    : trainer(trainer_in), envFactory(std::move(env_factory)),
      policyFactory(std::move(policy_factory)),
      config(std::move(config_in)), async(std::move(async_in)),
      store(core::makeReplayStore(config,
                                  trainer_in.transitionShapes())),
      layout(replay::JointTransitionLayout::fromShapes(
          trainer_in.transitionShapes()))
{
    MARLIN_ASSERT(async.actors >= 1, "async loop needs >= 1 actor");
    MARLIN_ASSERT(async.lanesPerActor >= 1,
                  "async loop needs >= 1 lane per actor");
    if (config.healthPolicy == core::HealthGuardPolicy::Rollback)
    {
        fatal("HealthGuardPolicy::Rollback requires the synchronous "
              "checkpoint/restore cycle of the lockstep TrainLoop; "
              "use the sync loop (--actors 1) or another policy");
    }
}

void
AsyncTrainLoop::setTelemetry(obs::TelemetryWriter *writer,
                             std::size_t every_steps)
{
    telemetry = writer;
    telemetryEvery = every_steps > 0 ? every_steps : 1;
}

AsyncTrainResult
AsyncTrainLoop::run(std::size_t episodes)
{
    AsyncTrainResult result;

    PolicySnapshot snapshot;
    snapshot.registerActors(async.actors);
    RunControl control;
    control.episodeTarget = episodes;
    control.activeActors.store(async.actors,
                               std::memory_order_relaxed);
    if (injector != nullptr)
        control.startPending.store(async.actors,
                                   std::memory_order_relaxed);
    obs::Registry::instance().gauge("async.actors").set(
        static_cast<double>(async.actors));

    // Resume before anything is cloned or published: the restored
    // trainer weights must be what the first snapshot carries.
    if (async.resume && !async.checkpointDir.empty())
    {
        core::LoopProgress progress;
        core::RunState state;
        state.trainer = &trainer;
        state.replay = store.get();
        state.progress = &progress;
        const core::CkptResult loaded =
            core::resumeLatest(async.checkpointDir, state);
        if (loaded)
        {
            // The snapshot's episode progress is the contiguous
            // completed prefix: re-enter the run as if episodes
            // [0, P) just finished, and let the fleet re-claim
            // everything after.
            const std::uint64_t prefix = progress.episodeIndex;
            control.episodesClaimed.store(
                prefix, std::memory_order_relaxed);
            control.completedCount.store(
                prefix, std::memory_order_relaxed);
            for (std::uint64_t e = 0; e < prefix; ++e)
                control.episodeRewards.emplace_back(
                    e, progress.episodeRewards[e]);
            result.resumedFromEpisode = prefix;
            inform("async resume: restored %llu episodes, %zu "
                   "replay transitions from %s",
                   static_cast<unsigned long long>(prefix),
                   static_cast<std::size_t>(store->size()),
                   async.checkpointDir.c_str());
        }
        else if (loaded.error == core::CkptError::NotFound)
        {
            inform("async resume: no checkpoint in %s yet, starting "
                   "fresh",
                   async.checkpointDir.c_str());
        }
        else
        {
            fatal("async resume from %s failed (%s): %s",
                  async.checkpointDir.c_str(),
                  core::ckptErrorName(loaded.error),
                  loaded.detail.c_str());
        }
    }

    // Actors must start from the learner's exact current weights,
    // not their clones' random init: publish before any thread runs.
    snapshot.publish(trainer);

    std::vector<std::unique_ptr<replay::TransitionRing>> rings;
    std::vector<std::unique_ptr<ActorRunner>> actors;
    rings.reserve(async.actors);
    actors.reserve(async.actors);
    for (std::size_t a = 0; a < async.actors; ++a)
    {
        rings.push_back(std::make_unique<replay::TransitionRing>(
            layout.stride, async.ringCapacity));

        std::vector<std::unique_ptr<env::Environment>> lanes;
        lanes.reserve(async.lanesPerActor);
        for (std::size_t l = 0; l < async.lanesPerActor; ++l)
        {
            // Distinct decorrelated seeds per lane; the sync loop's
            // stream (plain config.seed) is deliberately not among
            // them — async runs are a different experiment.
            lanes.push_back(envFactory(config.seed + 1 +
                                       a * async.lanesPerActor + l));
        }

        ActorConfig acfg;
        acfg.actorId = a;
        acfg.maxEpisodeLength = config.maxEpisodeLength;
        acfg.publishBatch = async.publishBatch;
        acfg.actionMode = config.actionMode;
        actors.push_back(std::make_unique<ActorRunner>(
            acfg, std::move(lanes),
            policyFactory(config.seed + 7919 * (a + 1)), *rings[a],
            layout, snapshot, control));
    }

    std::vector<replay::TransitionRing *> ringPtrs;
    ringPtrs.reserve(rings.size());
    for (auto &r : rings)
        ringPtrs.push_back(r.get());

    LearnerConfig lcfg;
    lcfg.snapshotEvery =
        async.snapshotEvery > 0 ? async.snapshotEvery : 1;
    lcfg.checkpointDir = async.checkpointDir;
    lcfg.checkpointEveryUpdates = async.checkpointEveryUpdates;
    LearnerRunner learner(trainer, *store, ringPtrs, layout,
                          snapshot, control, config, lcfg);
    learner.setTelemetry(telemetry, telemetryEvery);

    SupervisorConfig scfg;
    scfg.watchdogDeadlineMs = async.watchdogDeadlineMs;
    scfg.degradeAfterMs = async.degradeAfterMs;
    scfg.maxRestarts = async.maxActorRestarts;
    scfg.restartBackoffMs = async.restartBackoffMs;
    Supervisor supervisor(scfg, control, injector);
    if (supervisorHook)
        supervisor.setPollHook(supervisorHook);
    supervisor.setLearner("marlin-learner", &learner);
    for (std::size_t a = 0; a < async.actors; ++a)
        supervisor.addActor("marlin-actor" + std::to_string(a),
                            actors[a].get(), rings[a].get());

    supervisor.start();
    // The orchestrating thread is the watchdog; this returns with
    // every worker joined.
    supervisor.superviseUntilDone();

    for (const auto &actor : actors)
    {
        result.envSteps += actor->envSteps();
        result.weightRefreshes += actor->weightRefreshes();
        result.timer.merge(actor->timer());
    }
    result.timer.merge(learner.timer());
    result.drainedSteps = learner.drainedSteps();
    result.updateCalls = learner.updateCalls();
    result.nonFiniteUpdates = learner.nonFiniteUpdates();
    result.halted = learner.halted();
    result.quarantined = learner.quarantinedCount();
    result.checkpointsSaved = learner.checkpointsSaved();
    for (const auto &ring : rings)
    {
        result.ringPushed += ring->pushedCount();
        result.ringDropped += ring->droppedCount();
        result.ringSeqGaps += ring->seqGapCount();
        result.ringResidual += ring->depth();
    }

    result.restarts = supervisor.restarts();
    result.degradations = supervisor.degradations();
    result.watchdogTrips = supervisor.watchdogTrips();
    result.learnerFailed = supervisor.learnerFailed();
    result.learnerError = supervisor.learnerError();

    {
        const std::lock_guard<std::mutex> lock(control.rewardMutex);
        std::sort(control.episodeRewards.begin(),
                  control.episodeRewards.end(),
                  [](const auto &x, const auto &y) {
                      return x.first < y.first;
                  });
        result.episodeRewards.reserve(control.episodeRewards.size());
        for (const auto &[index, reward] : control.episodeRewards)
            result.episodeRewards.push_back(reward);
    }
    if (!result.episodeRewards.empty())
    {
        const std::size_t done = result.episodeRewards.size();
        const std::size_t tail = std::max<std::size_t>(1, done / 10);
        Real total = 0;
        for (std::size_t e = done - tail; e < done; ++e)
            total += result.episodeRewards[e];
        result.finalScore = total / static_cast<Real>(tail);
    }

    if (telemetry != nullptr)
    {
        telemetry->writeSummary({
            {"episodes",
             static_cast<double>(result.episodeRewards.size())},
            {"env_steps", static_cast<double>(result.envSteps)},
            {"drained_steps",
             static_cast<double>(result.drainedSteps)},
            {"update_calls",
             static_cast<double>(result.updateCalls)},
            {"final_score", static_cast<double>(result.finalScore)},
            {"nonfinite_updates",
             static_cast<double>(result.nonFiniteUpdates)},
            {"ring_pushed",
             static_cast<double>(result.ringPushed)},
            {"ring_dropped",
             static_cast<double>(result.ringDropped)},
            {"ring_seq_gaps",
             static_cast<double>(result.ringSeqGaps)},
            {"ring_residual",
             static_cast<double>(result.ringResidual)},
            {"actors", static_cast<double>(async.actors)},
            {"halted", result.halted ? 1.0 : 0.0},
            {"restarts", static_cast<double>(result.restarts)},
            {"degradations",
             static_cast<double>(result.degradations)},
            {"watchdog_trips",
             static_cast<double>(result.watchdogTrips)},
            {"quarantined",
             static_cast<double>(result.quarantined)},
            {"learner_failed", result.learnerFailed ? 1.0 : 0.0},
            {"checkpoints_saved",
             static_cast<double>(result.checkpointsSaved)},
            {"resumed_from_episode",
             static_cast<double>(result.resumedFromEpisode)},
        });
    }

    return result;
}

} // namespace marlin::async

#include "marlin/async/learner_runner.hh"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <thread>

#include "marlin/async/flow_id.hh"
#include "marlin/base/instant.hh"
#include "marlin/base/logging.hh"
#include "marlin/base/string_utils.hh"
#include "marlin/core/checkpoint.hh"
#include "marlin/core/train_loop.hh"
#include "marlin/obs/trace.hh"

namespace marlin::async
{

using profile::Phase;
using profile::ScopedPhase;

LearnerRunner::LearnerRunner(
    core::CtdeTrainerBase &trainer_in,
    replay::ReplayStore &store_in,
    std::vector<replay::TransitionRing *> rings_in,
    const replay::JointTransitionLayout &layout_in,
    PolicySnapshot &snapshot_in, RunControl &control_in,
    const core::TrainConfig &config_in,
    LearnerConfig learner_config_in)
    : trainer(trainer_in), store(store_in),
      rings(std::move(rings_in)), layout(layout_in),
      snapshot(snapshot_in), control(control_in), config(config_in),
      learnerConfig(std::move(learner_config_in)),
      pushedCounter(
          obs::Registry::instance().counter("async.ring.pushed")),
      droppedCounter(
          obs::Registry::instance().counter("async.ring.dropped")),
      gapCounter(
          obs::Registry::instance().counter("async.ring.seq_gaps")),
      quarantinedCounter(
          obs::Registry::instance().counter("async.quarantined")),
      depthGauge(obs::Registry::instance().gauge("async.ring.depth")),
      transitHistogram(obs::Registry::instance().histogram(
          "async.ring.transit_us",
          {50, 100, 250, 500, 1000, 2500, 5000, 10000, 25000, 50000,
           100000})),
      stalenessGauge(
          obs::Registry::instance().gauge("async.policy.staleness"))
{
    MARLIN_ASSERT(!rings.empty(), "learner needs at least one ring");
}

void
LearnerRunner::setTelemetry(obs::TelemetryWriter *writer,
                            std::size_t every_steps)
{
    telemetry = writer;
    telemetryEvery = every_steps > 0 ? every_steps : 1;
    telemetryNextAt = telemetryEvery;
    telemetryLastNs.fill(0);
}

bool
LearnerRunner::recordPoisoned(const Real *rec) const
{
    for (std::size_t i = 0; i < layout.stride; ++i)
        if (!std::isfinite(rec[i]))
            return true;
    return false;
}

std::size_t
LearnerRunner::drainRings()
{
    std::size_t count = 0;
    for (std::size_t r = 0; r < rings.size(); ++r)
    {
        replay::TransitionRing *ring = rings[r];
        std::size_t fromRing = 0;
        const Real *rec = nullptr;
        std::uint64_t seq = 0;
        std::uint64_t pushTimeNs = 0;
        while (fromRing < learnerConfig.drainChunk &&
               (rec = ring->front(&seq, &pushTimeNs)) != nullptr)
        {
            // Quarantine at the funnel: a NaN/Inf record is popped
            // (so the ring advances and popped == drained +
            // quarantined holds) but never inserted — one poisoned
            // transition must not contaminate every future batch.
            if (recordPoisoned(rec))
            {
                ring->pop();
                ++quarantined;
                quarantinedCounter.add(1);
                ++fromRing;
                continue;
            }
            {
                ScopedPhase sp(_timer, Phase::BufferAdd);
                obs::TraceRing *tr = obs::TraceRing::active();
                const std::uint64_t drainStartNs =
                    tr != nullptr ? base::nowNsSinceStart() : 0;
                // Same contract as the lockstep loop's insertion:
                // the slot index is the storage cursor before the
                // add, and the trainer hears about it (sampler
                // hints) right after. appendRecord is the raw-record
                // fast path on every backend — a straight memcpy on
                // the sharded store.
                const BufferIndex slot = store.writeCursor();
                store.appendRecord(layout, rec);
                trainer.onTransitionAdded(slot);
                ring->pop();
                // Transit age on the insert path only, so the
                // histogram's observation count equals drained
                // records exactly (tests pin this). Ring r is actor
                // r's ring — the loop builds them in actor order —
                // so (r, seq) reproduces the producer's flow id.
                const std::uint64_t nowNs = base::nowNsSinceStart();
                transitHistogram.observe(
                    static_cast<double>(nowNs - pushTimeNs) /
                    1000.0);
                if (tr != nullptr)
                {
                    tr->record("ring_drain", "async", drainStartNs,
                               nowNs - drainStartNs,
                               transitionFlowId(r, seq),
                               obs::FlowDir::In);
                }
            }
            ++fromRing;
            ++drained;
            // Honour --telemetry-every at drained-transition
            // granularity even though the learner pulls in chunks.
            if (telemetry != nullptr && drained >= telemetryNextAt)
            {
                refreshMetrics();
                maybeEmitTelemetry();
            }
        }
        count += fromRing;
    }
    return count;
}

void
LearnerRunner::refreshMetrics()
{
    std::uint64_t pushedTotal = 0;
    std::uint64_t droppedTotal = 0;
    std::uint64_t gapTotal = 0;
    std::size_t depthTotal = 0;
    for (const replay::TransitionRing *ring : rings)
    {
        pushedTotal += ring->pushedCount();
        droppedTotal += ring->droppedCount();
        gapTotal += ring->seqGapCount();
        depthTotal += ring->depth();
    }
    if (pushedTotal > lastPushed)
        pushedCounter.add(pushedTotal - lastPushed);
    if (droppedTotal > lastDropped)
        droppedCounter.add(droppedTotal - lastDropped);
    if (gapTotal > lastGaps)
        gapCounter.add(gapTotal - lastGaps);
    lastPushed = pushedTotal;
    lastDropped = droppedTotal;
    lastGaps = gapTotal;
    depthGauge.set(static_cast<double>(depthTotal));
    const std::uint64_t published = snapshot.version();
    const std::uint64_t adopted = snapshot.minAdoptedVersion();
    stalenessGauge.set(static_cast<double>(
        published > adopted ? published - adopted : 0));
}

void
LearnerRunner::maybeEmitTelemetry()
{
    if (telemetry == nullptr || drained < telemetryNextAt)
        return;
    telemetryNextAt = drained + telemetryEvery;

    // Ring, latency and supervision accounting ride in the record's
    // registry snapshot, which refreshMetrics() just brought current.
    const std::uint64_t claimed =
        control.episodesClaimed.load(std::memory_order_relaxed);
    telemetry->writeStep(core::makeStepRecord(
        std::min(claimed, control.episodeTarget), drained, updates,
        _timer, telemetryLastNs, _haveStats ? &stats : nullptr));
}

void
LearnerRunner::maybeCheckpoint(bool force)
{
    if (learnerConfig.checkpointDir.empty())
        return;
    if (!force && (learnerConfig.checkpointEveryUpdates == 0 ||
                   updates % learnerConfig.checkpointEveryUpdates !=
                       0))
        return;

    // Async episodes complete out of order, so the resumable state
    // is the contiguous completed prefix: every episode below
    // progress.episodeIndex has a recorded reward. Episodes past a
    // gap are re-run on resume — throughput-equivalent, not
    // bit-identical (the lockstep loop keeps that contract).
    core::LoopProgress progress;
    {
        const std::lock_guard<std::mutex> lock(control.rewardMutex);
        std::vector<std::pair<std::uint64_t, Real>> pairs =
            control.episodeRewards;
        std::sort(pairs.begin(), pairs.end(),
                  [](const auto &x, const auto &y) {
                      return x.first < y.first;
                  });
        for (std::size_t i = 0; i < pairs.size(); ++i)
        {
            if (pairs[i].first != i)
                break;
            progress.episodeRewards.push_back(pairs[i].second);
        }
    }
    progress.episodeIndex = progress.episodeRewards.size();
    progress.envSteps = drained;
    progress.updateCalls = updates;
    progress.insertionsSinceUpdate = insertionsSinceUpdate;

    core::RunState state;
    state.trainer = &trainer;
    state.replay = &store;
    state.progress = &progress;
    const core::CkptResult saved = core::saveRotating(
        learnerConfig.checkpointDir, state, nullptr);
    if (saved)
        ++checkpoints;
    else
        warn("async learner: checkpoint save failed (%s): %s",
             core::ckptErrorName(saved.error),
             saved.detail.c_str());
}

void
LearnerRunner::run()
{
    while (!control.stop.load(std::memory_order_acquire))
    {
        if (heartbeat != nullptr)
            heartbeat->beat();
        // Order matters: read the retirement flag BEFORE draining.
        // Actors publish their final batch before decrementing
        // activeActors, so "idle before the drain + nothing drained"
        // proves the rings are empty for good.
        const bool actorsIdle =
            control.activeActors.load(std::memory_order_acquire) ==
            0;
        const std::size_t drainedNow = drainRings();
        insertionsSinceUpdate += drainedNow;

        bool updated = false;
        const bool warm =
            store.size() >= config.warmupTransitions &&
            store.size() >=
                static_cast<BufferIndex>(config.batchSize);
        if (warm && insertionsSinceUpdate >=
                        static_cast<StepCount>(config.updateEvery))
        {
            insertionsSinceUpdate = 0;
            stats = trainer.update(store, _timer);
            _haveStats = true;
            ++updates;
            updated = true;
            if (updates % learnerConfig.snapshotEvery == 0)
            {
                ++snapshotOrdinal;
                if (injector != nullptr)
                {
                    const std::uint64_t delayMs =
                        injector->onSnapshotPublish(snapshotOrdinal);
                    if (delayMs > 0)
                        std::this_thread::sleep_for(
                            std::chrono::milliseconds(delayMs));
                }
                snapshot.publish(trainer);
            }
            maybeCheckpoint(false);
            if (stats.nonFiniteCount > 0)
            {
                nonFinite += stats.nonFiniteCount;
                if (config.healthPolicy == core::HealthGuardPolicy::Halt)
                {
                    warn("async learner: non-finite loss/gradient "
                         "in update %llu: halting",
                         static_cast<unsigned long long>(updates));
                    _halted = true;
                    control.stop.store(true,
                                       std::memory_order_release);
                    break;
                }
            }
        }

        // The chaos kill fires at the END of the cycle that crosses
        // the drained threshold, after that cycle's update and
        // periodic checkpoint. A "kill after D drained" schedule is
        // therefore guaranteed to leave behind whatever checkpoints
        // the first D records earned — on a single-CPU box one drain
        // cycle can swallow hundreds of records, and firing before
        // the update would make "crash then resume" untestable.
        if (injector != nullptr && injector->onLearnerDrain(drained))
            throw base::InjectedFault(csprintf(
                "chaos: kill learner after %llu drained records",
                static_cast<unsigned long long>(drained)));

        if (drainedNow > 0 || updated)
        {
            refreshMetrics();
        }
        else if (actorsIdle)
        {
            break;
        }
        else
        {
            // Rings empty but actors alive: back off briefly rather
            // than spin on their cache lines.
            std::this_thread::sleep_for(
                std::chrono::microseconds(50));
        }
    }
    refreshMetrics();
    // Final snapshot on the clean paths only. A halted run has
    // poisoned numerics, and a crashed learner never reaches here —
    // in both cases the last periodic checkpoint is the one that
    // should survive.
    if (!_halted)
        maybeCheckpoint(true);
}

} // namespace marlin::async

/**
 * @file
 * Learner thread of the async runtime: drains every actor's
 * transition ring into the replay buffer, runs trainer updates, and
 * publishes fresh actor weights back to the rollout threads.
 */

#ifndef MARLIN_ASYNC_LEARNER_RUNNER_HH
#define MARLIN_ASYNC_LEARNER_RUNNER_HH

#include <string>
#include <vector>

#include "marlin/async/policy_snapshot.hh"
#include "marlin/async/run_control.hh"
#include "marlin/base/fault_injector.hh"
#include "marlin/base/worker_thread.hh"
#include "marlin/core/maddpg.hh"
#include "marlin/obs/metrics.hh"
#include "marlin/obs/telemetry.hh"
#include "marlin/profile/timer.hh"
#include "marlin/replay/sharded_store.hh"
#include "marlin/replay/transition_ring.hh"

namespace marlin::async
{

/** Learner-side knobs, fixed for the run. */
struct LearnerConfig
{
    /** Updates between weight-snapshot publications. */
    std::size_t snapshotEvery = 1;
    /** Max records drained per ring per cycle, so a fast producer
     *  cannot starve the update cadence. */
    std::size_t drainChunk = 256;
    /** Rotating checkpoint directory; empty disables. */
    std::string checkpointDir;
    /** Updates between checkpoints (0 disables periodic saves; a
     *  final snapshot is still written on clean exit when the
     *  directory is set). */
    std::size_t checkpointEveryUpdates = 0;
};

/**
 * One learner thread over N actor rings. Per cycle: drain a bounded
 * chunk from each ring into the replay buffer (the PR-5 raw-pointer
 * path — allocation-free on warm buffers), run a trainer update when
 * enough insertions accumulated, publish weights, refresh ring
 * counters in the obs registry and the telemetry stream.
 *
 * Data hardening: every record is screened for NaN/Inf at the drain
 * point — the single funnel between N untrusted producers and the
 * replay buffer — and quarantined (popped, counted, never inserted)
 * rather than allowed to poison every future sampled batch. This
 * extends the PR-2 health-guard taxonomy one layer earlier: guards
 * screen the optimizer's inputs, quarantine screens the buffer's.
 *
 * Checkpointing: with a directory configured, the learner writes
 * rotating full-state snapshots (networks, optimizer, RNG streams,
 * replay buffers, episode progress) between updates — the only
 * point where trainer state is quiescent — plus a final one on
 * clean exit. Async resume is throughput-equivalent, not
 * bit-identical: the snapshot's episode progress is the contiguous
 * completed prefix, so episodes finished out of order past a gap
 * are re-run (see async_train_loop.hh).
 *
 * Thread contract: run() is the thread body; result accessors are
 * read after it joins; setters are called before it starts.
 */
class LearnerRunner
{
  public:
    LearnerRunner(core::CtdeTrainerBase &trainer,
                  replay::ReplayStore &store,
                  std::vector<replay::TransitionRing *> rings,
                  const replay::JointTransitionLayout &layout,
                  PolicySnapshot &snapshot, RunControl &control,
                  const core::TrainConfig &config,
                  LearnerConfig learner_config);

    /**
     * Stream one telemetry record per @p every_steps drained
     * transitions. Learner-thread only (the writer is single-
     * threaded); call before the thread starts.
     */
    void setTelemetry(obs::TelemetryWriter *writer,
                      std::size_t every_steps);

    // Supervisor wiring; call before the thread starts.
    void setHeartbeat(base::Heartbeat *hb) { heartbeat = hb; }
    void setFaultInjector(base::FaultInjector *fi) { injector = fi; }

    /** Thread body: drain and update until all actors retire. */
    void run();

    // Read after join.
    StepCount drainedSteps() const { return drained; }
    StepCount updateCalls() const { return updates; }
    std::size_t nonFiniteUpdates() const { return nonFinite; }
    bool halted() const { return _halted; }
    /** Records popped at drain but never inserted (NaN/Inf). */
    std::uint64_t quarantinedCount() const { return quarantined; }
    std::uint64_t checkpointsSaved() const { return checkpoints; }
    const profile::PhaseTimer &timer() const { return _timer; }
    const core::UpdateStats &lastStats() const { return stats; }
    bool haveStats() const { return _haveStats; }

  private:
    /** Drain up to drainChunk records from each ring. @return count
     *  of records consumed (inserted + quarantined). */
    std::size_t drainRings();

    /** True when any of the record's stride Reals is NaN/Inf. */
    bool recordPoisoned(const Real *rec) const;

    /** Push ring totals into the obs registry (delta counters). */
    void refreshMetrics();

    void maybeEmitTelemetry();

    /** Rotating full-state snapshot; no-op without a directory. */
    void maybeCheckpoint(bool force);

    core::CtdeTrainerBase &trainer;
    replay::ReplayStore &store;
    std::vector<replay::TransitionRing *> rings;
    const replay::JointTransitionLayout &layout;
    PolicySnapshot &snapshot;
    RunControl &control;
    core::TrainConfig config;
    LearnerConfig learnerConfig;

    obs::TelemetryWriter *telemetry = nullptr;
    std::size_t telemetryEvery = 1;
    StepCount telemetryNextAt = 0;
    std::array<std::uint64_t, profile::numPhases> telemetryLastNs{};

    base::Heartbeat *heartbeat = nullptr;
    base::FaultInjector *injector = nullptr;

    StepCount drained = 0;
    StepCount insertionsSinceUpdate = 0;
    StepCount updates = 0;
    std::size_t nonFinite = 0;
    std::uint64_t quarantined = 0;
    std::uint64_t snapshotOrdinal = 0;
    std::uint64_t checkpoints = 0;
    bool _halted = false;
    core::UpdateStats stats;
    bool _haveStats = false;
    profile::PhaseTimer _timer;

    // Obs registry handles, resolved once (registration locks).
    obs::Counter &pushedCounter;
    obs::Counter &droppedCounter;
    obs::Counter &gapCounter;
    obs::Counter &quarantinedCounter;
    obs::Gauge &depthGauge;
    /** Push-to-drain age of every inserted record (µs). */
    obs::Histogram &transitHistogram;
    /** snapshot.version() minus the slowest actor's adopted
     *  version: how stale the worst actor's policy is, in
     *  publications. */
    obs::Gauge &stalenessGauge;
    // Last published totals, so counters receive deltas.
    std::uint64_t lastPushed = 0;
    std::uint64_t lastDropped = 0;
    std::uint64_t lastGaps = 0;
};

} // namespace marlin::async

#endif // MARLIN_ASYNC_LEARNER_RUNNER_HH

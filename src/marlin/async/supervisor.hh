/**
 * @file
 * Fault-tolerant supervision of the async actor-learner fleet.
 *
 * PR 6's runtime assumed every thread lives forever: a crashed actor
 * silently starved the learner and a wedged one hung the join. The
 * Supervisor owns the fleet's threads and watches them from the
 * orchestrating thread (which doubles as the watchdog): every worker
 * runs inside WorkerThread's exception trampoline and stamps a
 * Heartbeat each sweep, so the monitor loop can tell four states
 * apart — done, crashed (finished + failed), stalled (alive, not
 * beating) and healthy — and apply policy:
 *
 *  - crashed actor: reclaim its in-flight episode indices, flush its
 *    ring's staged records (join gives the happens-before edge that
 *    makes the successor-producer takeover safe, see
 *    transition_ring.hh), then restart the runner with its lane,
 *    RNG and sequence state preserved — bounded retries with
 *    exponential backoff — or, budget exhausted, degrade: the fleet
 *    continues with one fewer actor and healthy peers absorb the
 *    reclaimed episodes;
 *  - stalled actor: a watchdog trip is latched per stall episode
 *    (and cleared on recovery); past the degrade deadline the actor
 *    is aborted and force-retired — its lanes are not touched while
 *    the thread lives, it abandons them itself on wake;
 *  - crashed learner: unrecoverable (optimizer state of unknown
 *    integrity — the periodic checkpoint, written only between
 *    updates, is the recovery path). The run is stopped so actors
 *    exit, and no further checkpoint is written.
 *
 * Every restart, degradation, watchdog trip and learner failure is
 * counted in the obs registry (supervisor.*) the moment it happens,
 * so a run that survives faults says so live — in /metrics and in
 * every telemetry snapshot — instead of merely finishing.
 */

#ifndef MARLIN_ASYNC_SUPERVISOR_HH
#define MARLIN_ASYNC_SUPERVISOR_HH

#include <array>
#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "marlin/async/actor_runner.hh"
#include "marlin/async/learner_runner.hh"
#include "marlin/async/run_control.hh"
#include "marlin/base/fault_injector.hh"
#include "marlin/base/worker_thread.hh"
#include "marlin/obs/metrics.hh"
#include "marlin/replay/transition_ring.hh"

namespace marlin::async
{

/** Watchdog and restart policy, fixed for the run. */
struct SupervisorConfig
{
    /** An actor not beating for this long trips the watchdog.
     *  0 disables stall detection (crash detection stays on). */
    std::uint64_t watchdogDeadlineMs = 250;
    /** Stall length that degrades the actor; 0 = 4x the deadline. */
    std::uint64_t degradeAfterMs = 0;
    /** Restarts per actor before it is degraded instead. */
    std::size_t maxRestarts = 2;
};

/**
 * Owns and supervises the fleet's threads. Usage: register the
 * learner and every actor, start(), then superviseUntilDone() on
 * the orchestrating thread — it returns with every thread joined.
 *
 * Single-threaded driver contract: addActor/setLearner/start/
 * superviseUntilDone are called from one thread, in that order.
 */
class Supervisor
{
  public:
    /**
     * Registers supervisor.restarts, supervisor.degradations,
     * supervisor.watchdog_trips and supervisor.learner_failures, so
     * they are exported (at 0) before the first event.
     *
     * @param injector Optional chaos source; when given, its
     *        per-kind trip counts are mirrored to the obs registry
     *        ("fault.kill-actor", ...) on every monitor tick, so
     *        they are live like the supervisor.* counters.
     */
    Supervisor(SupervisorConfig config, RunControl &control,
               base::FaultInjector *injector = nullptr);

    /** Register one actor (not owned). Call before start(). */
    void addActor(std::string name, ActorRunner *runner,
                  replay::TransitionRing *ring);

    /** Register the learner (not owned). Call before start(). */
    void setLearner(std::string name, LearnerRunner *runner);

    /** Spawn the learner thread, then every actor thread. */
    void start();

    /**
     * Invoked once per monitor tick from the watchdog thread — the
     * designated idle thread of an async run.
     * The CLI mounts its --stats-port /metrics endpoint here, so
     * live scrapes are served without adding a thread and without
     * ever touching the actor/learner hot paths (scrape rendering
     * allocates; the hot threads are the ones under the zero-alloc
     * contract). Call before superviseUntilDone().
     */
    void setPollHook(std::function<void()> hook)
    {
        pollHook = std::move(hook);
    }

    /**
     * Monitor loop (the watchdog): poll heartbeats and thread
     * states, apply restart/degrade/halt policy, and return once
     * every thread has been joined. The injector's fault.<kind>
     * trip counts are published on every tick, before the poll
     * hook, and once more before returning.
     */
    void superviseUntilDone();

    // This run's outcome, kept apart from the process-wide registry
    // (tests run several supervisors in one process). Read after
    // superviseUntilDone() returns.
    /** Crashed actors restarted, summed over actors. */
    std::uint64_t restarts() const;
    /** Actors given up on (degraded), crash or stall. */
    std::uint64_t degradations() const { return degradedActors; }
    /** Stall episodes latched by the watchdog. */
    std::uint64_t watchdogTrips() const { return trips; }
    /** True when the learner thread died with an exception. */
    bool learnerFailed() const { return _learnerFailed; }
    const std::string &learnerError() const { return _learnerError; }

  private:
    struct ActorSlot
    {
        std::string name;
        ActorRunner *runner = nullptr;
        replay::TransitionRing *ring = nullptr;
        base::Heartbeat heartbeat;
        std::unique_ptr<base::WorkerThread> thread;
        std::size_t restarts = 0;
        std::uint64_t backoffMs = 1;
        bool degraded = false;
        bool tripped = false; ///< Stall latched until recovery.
        bool settled = false; ///< Joined for good, policy applied.
    };

    /** Crash policy for @p slot (its thread has finished). */
    void handleActorExit(ActorSlot &slot);

    /** Stall policy for @p slot (its thread is alive). */
    void checkActorStall(ActorSlot &slot);

    /** Add each fault kind's trips since the previous call to its
     *  fault.<kind> counter (no-op without an injector). */
    void publishFaultCounters();

    SupervisorConfig config;
    RunControl &control;
    base::FaultInjector *injector;
    std::function<void()> pollHook;

    std::vector<std::unique_ptr<ActorSlot>> actors;
    std::string learnerName;
    LearnerRunner *learner = nullptr;
    base::Heartbeat learnerHeartbeat;
    std::unique_ptr<base::WorkerThread> learnerThread;
    bool learnerSettled = false;

    bool _learnerFailed = false;
    std::string _learnerError;
    std::uint64_t degradedActors = 0;
    std::uint64_t trips = 0;

    // Obs registry handles, resolved once in the constructor.
    obs::Counter &restartsCounter;
    obs::Counter &degradationsCounter;
    obs::Counter &tripsCounter;
    obs::Counter &learnerFailuresCounter;
    /** fault.<kind>, resolved only when an injector is attached. */
    std::array<obs::Counter *, base::numFaultKinds> faultCounters{};
    /** Trips per kind already added to faultCounters. */
    std::array<std::uint64_t, base::numFaultKinds> faultPublished{};
};

} // namespace marlin::async

#endif // MARLIN_ASYNC_SUPERVISOR_HH

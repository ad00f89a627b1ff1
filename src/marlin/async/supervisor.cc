#include "marlin/async/supervisor.hh"

#include <chrono>
#include <thread>

#include "marlin/base/logging.hh"

namespace marlin::async
{

namespace
{

/** Backoff before an actor's first restart; doubles per restart. */
constexpr std::uint64_t restartBackoffMs = 1;
/** Monitor poll period. */
constexpr std::uint64_t pollMs = 2;

} // namespace

Supervisor::Supervisor(SupervisorConfig config_in,
                       RunControl &control_in,
                       base::FaultInjector *injector_in)
    : config(config_in), control(control_in), injector(injector_in),
      restartsCounter(
          obs::Registry::instance().counter("supervisor.restarts")),
      degradationsCounter(obs::Registry::instance().counter(
          "supervisor.degradations")),
      tripsCounter(obs::Registry::instance().counter(
          "supervisor.watchdog_trips")),
      learnerFailuresCounter(obs::Registry::instance().counter(
          "supervisor.learner_failures"))
{
    if (config.degradeAfterMs == 0)
        config.degradeAfterMs = 4 * config.watchdogDeadlineMs;
    if (injector != nullptr)
    {
        for (std::size_t k = 0; k < base::numFaultKinds; ++k)
            faultCounters[k] = &obs::Registry::instance().counter(
                std::string("fault.") +
                base::faultKindName(static_cast<base::FaultKind>(k)));
    }
}

void
Supervisor::addActor(std::string name, ActorRunner *runner,
                     replay::TransitionRing *ring)
{
    auto slot = std::make_unique<ActorSlot>();
    slot->name = std::move(name);
    slot->runner = runner;
    slot->ring = ring;
    slot->backoffMs = restartBackoffMs;
    runner->setHeartbeat(&slot->heartbeat);
    if (injector != nullptr)
        runner->setFaultInjector(injector);
    actors.push_back(std::move(slot));
}

void
Supervisor::setLearner(std::string name, LearnerRunner *runner)
{
    learnerName = std::move(name);
    learner = runner;
    learner->setHeartbeat(&learnerHeartbeat);
    if (injector != nullptr)
        learner->setFaultInjector(injector);
}

void
Supervisor::start()
{
    MARLIN_ASSERT(learner != nullptr,
                  "supervisor needs a learner before start()");
    learnerThread = std::make_unique<base::WorkerThread>(
        learnerName, [this] { learner->run(); });
    for (auto &slot : actors)
    {
        // Seed the heartbeat so a slow thread spawn does not read
        // as a stall.
        slot->heartbeat.beat();
        slot->thread = std::make_unique<base::WorkerThread>(
            slot->name, [runner = slot->runner] { runner->run(); });
    }
}

void
Supervisor::handleActorExit(ActorSlot &slot)
{
    slot.thread->join();
    if (!slot.thread->failed())
    {
        // Clean exit: the runner retired itself on its way out.
        slot.settled = true;
        return;
    }

    warn("supervisor: actor %s died: %s", slot.name.c_str(),
         slot.thread->errorMessage().c_str());
    // The join is the happens-before edge that makes it safe to
    // touch the dead producer's state from here: return its
    // in-flight episode claims and flush what it staged but never
    // published, so the learner drains every committed record.
    slot.runner->abandonActiveEpisodes();
    slot.ring->publish();

    const bool runOver = control.done() ||
                         control.stop.load(std::memory_order_acquire);
    if (!runOver && slot.restarts < config.maxRestarts)
    {
        std::this_thread::sleep_for(
            std::chrono::milliseconds(slot.backoffMs));
        slot.backoffMs *= 2;
        ++slot.restarts;
        restartsCounter.add(1);
        slot.heartbeat.beat();
        inform("supervisor: restarting actor %s (attempt %zu/%zu)",
               slot.name.c_str(), slot.restarts,
               config.maxRestarts);
        slot.thread = std::make_unique<base::WorkerThread>(
            slot.name, [runner = slot.runner] { runner->run(); });
        return;
    }

    // Restart budget exhausted (or the run is over anyway):
    // degrade — the fleet continues with one fewer actor and the
    // reclaim pool routes this actor's episodes to healthy peers.
    if (!runOver)
    {
        slot.degraded = true;
        ++degradedActors;
        degradationsCounter.add(1);
        warn("supervisor: actor %s degraded after %zu restarts",
             slot.name.c_str(), slot.restarts);
    }
    slot.runner->retireOnce();
    slot.settled = true;
}

void
Supervisor::checkActorStall(ActorSlot &slot)
{
    if (config.watchdogDeadlineMs == 0 ||
        slot.heartbeat.lastBeatNs() == 0)
        return;
    const std::uint64_t sinceMs =
        slot.heartbeat.nsSinceBeat() / 1000000;
    if (sinceMs <= config.watchdogDeadlineMs)
    {
        slot.tripped = false; // Recovered; re-arm the trip latch.
        return;
    }
    if (!slot.tripped)
    {
        slot.tripped = true;
        ++trips;
        tripsCounter.add(1);
        warn("supervisor: watchdog trip — actor %s silent for "
             "%llu ms (deadline %llu ms)",
             slot.name.c_str(),
             static_cast<unsigned long long>(sinceMs),
             static_cast<unsigned long long>(
                 config.watchdogDeadlineMs));
    }
    if (!slot.degraded && sinceMs > config.degradeAfterMs)
    {
        // Cannot restart a thread that never exits, and its lanes
        // are off-limits while it lives: abort + force-retire. The
        // actor abandons its episodes itself when (if) it wakes.
        slot.degraded = true;
        ++degradedActors;
        degradationsCounter.add(1);
        warn("supervisor: degrading stalled actor %s (silent for "
             "%llu ms)",
             slot.name.c_str(),
             static_cast<unsigned long long>(sinceMs));
        slot.runner->requestAbort();
        slot.runner->retireOnce();
    }
}

void
Supervisor::superviseUntilDone()
{
    while (true)
    {
        if (!learnerSettled && learnerThread->finished())
        {
            learnerThread->join();
            learnerSettled = true;
            if (learnerThread->failed())
            {
                _learnerFailed = true;
                _learnerError = learnerThread->errorMessage();
                learnerFailuresCounter.add(1);
                warn("supervisor: learner %s died: %s — stopping "
                     "the run (the last periodic checkpoint is the "
                     "recovery path)",
                     learnerName.c_str(), _learnerError.c_str());
                // Trainer state is of unknown integrity: halt the
                // fleet, write nothing.
                control.stop.store(true, std::memory_order_release);
            }
        }

        bool allSettled = learnerSettled;
        for (auto &slot : actors)
        {
            if (slot->settled)
                continue;
            if (slot->thread->finished())
                handleActorExit(*slot);
            else
                checkActorStall(*slot);
            if (!slot->settled)
                allSettled = false;
        }
        publishFaultCounters();
        if (pollHook)
            pollHook();
        if (allSettled)
            break;
        std::this_thread::sleep_for(std::chrono::milliseconds(pollMs));
    }
    publishFaultCounters();
}

std::uint64_t
Supervisor::restarts() const
{
    std::uint64_t total = 0;
    for (const auto &slot : actors)
        total += slot->restarts;
    return total;
}

void
Supervisor::publishFaultCounters()
{
    if (injector == nullptr)
        return;
    for (std::size_t k = 0; k < base::numFaultKinds; ++k)
    {
        const std::uint64_t count =
            injector->tripCount(static_cast<base::FaultKind>(k));
        faultCounters[k]->add(count - faultPublished[k]);
        faultPublished[k] = count;
    }
}

} // namespace marlin::async

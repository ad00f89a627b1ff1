/**
 * @file
 * Fault-tolerance tests of the supervised async runtime: chaos
 * schedules (actor kills, stalls, corrupt transitions, learner
 * kills, snapshot delays) against the Supervisor's restart/degrade/
 * halt policies, NaN quarantine at the drain funnel, the async
 * checkpoint/resume path, and the FaultInjector chaos API itself.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <cmath>
#include <filesystem>
#include <fstream>
#include <functional>
#include <map>
#include <memory>
#include <regex>
#include <thread>
#include <vector>

#include "marlin/marlin.hh"

namespace marlin
{
namespace
{

namespace fs = std::filesystem;

constexpr std::size_t kAgents = 3;

struct TempDir
{
    fs::path path;

    explicit TempDir(const char *tag)
        : path(fs::temp_directory_path() /
               (std::string("marlin_sup_") + tag))
    {
        fs::remove_all(path);
        fs::create_directories(path);
    }
    ~TempDir() { fs::remove_all(path); }
};

std::vector<std::size_t>
agentDims()
{
    auto environment = env::makeCooperativeNavigationEnv(kAgents, 1);
    std::vector<std::size_t> dims;
    for (std::size_t i = 0; i < environment->numAgents(); ++i)
        dims.push_back(environment->obsDim(i));
    return dims;
}

core::TrainConfig
chaosTestConfig()
{
    core::TrainConfig c;
    c.batchSize = 32;
    c.bufferCapacity = 4096;
    c.warmupTransitions = 64;
    c.updateEvery = 25;
    c.hiddenDims = {16, 16};
    c.seed = 29;
    return c;
}

std::unique_ptr<core::CtdeTrainerBase>
makeMaddpg(const core::TrainConfig &config)
{
    auto environment = env::makeCooperativeNavigationEnv(kAgents, 1);
    return std::make_unique<core::MaddpgTrainer>(
        agentDims(), environment->actionDim(), config,
        [] { return std::make_unique<replay::UniformSampler>(); });
}

/** One supervised async run under @p injector's schedule; @p setup
 *  may attach telemetry or a watchdog-tick hook first. */
async::AsyncTrainResult
runChaos(std::size_t episodes, async::AsyncConfig acfg,
         base::FaultInjector *injector,
         core::CtdeTrainerBase *trainer = nullptr,
         const std::function<void(async::AsyncTrainLoop &)> &setup =
             nullptr)
{
    const core::TrainConfig config = chaosTestConfig();
    std::unique_ptr<core::CtdeTrainerBase> owned;
    if (trainer == nullptr)
    {
        owned = makeMaddpg(config);
        trainer = owned.get();
    }
    async::AsyncTrainLoop loop(
        *trainer,
        [](std::uint64_t seed) {
            return env::makeCooperativeNavigationEnv(kAgents, seed);
        },
        [&config](std::uint64_t seed) {
            core::TrainConfig actor_config = config;
            actor_config.seed = seed;
            return makeMaddpg(actor_config);
        },
        config, acfg);
    if (injector != nullptr)
        loop.setFaultInjector(injector);
    if (setup)
        setup(loop);
    return loop.run(episodes);
}

/** pushed == drained + quarantined + residual: nothing vanishes. */
void
expectConservation(const async::AsyncTrainResult &r)
{
    EXPECT_EQ(r.envSteps, r.ringPushed + r.ringDropped);
    EXPECT_EQ(r.ringPushed,
              r.drainedSteps + r.quarantined + r.ringResidual);
    EXPECT_LE(r.ringSeqGaps, r.ringDropped);
}

// --- FaultInjector chaos API ------------------------------------

TEST(FaultInjectorChaos, ParseChaosSpecAcceptsTheFullGrammar)
{
    base::FaultInjector injector;
    std::string error;
    ASSERT_TRUE(injector.parseChaosSpec(
        "kill:1@120, stall:2@200:50, corrupt:0@300, "
        "kill-learner@400, delay-snap@3:20",
        &error))
        << error;
    const auto faults = injector.scheduledFaults();
    ASSERT_EQ(faults.size(), 5u);
    EXPECT_EQ(faults[0].kind, base::FaultKind::KillActor);
    EXPECT_EQ(faults[0].actorId, 1u);
    EXPECT_EQ(faults[0].atStep, 120u);
    EXPECT_EQ(faults[1].kind, base::FaultKind::StallActor);
    EXPECT_EQ(faults[1].millis, 50u);
    EXPECT_EQ(faults[2].kind, base::FaultKind::CorruptTransition);
    EXPECT_EQ(faults[2].actorId, 0u);
    EXPECT_EQ(faults[3].kind, base::FaultKind::KillLearner);
    EXPECT_EQ(faults[3].atStep, 400u);
    EXPECT_EQ(faults[4].kind, base::FaultKind::DelaySnapshot);
    EXPECT_EQ(faults[4].atStep, 3u);
    EXPECT_EQ(faults[4].millis, 20u);
}

TEST(FaultInjectorChaos, ParseChaosSpecRejectsMalformedTokens)
{
    const char *bad[] = {
        "explode:1@5",       // unknown verb
        "kill:1",            // missing @step
        "kill:x@5",          // non-numeric actor
        "stall:1@5",         // missing :ms
        "kill-learner@",     // missing step
        "delay-snap@3",      // missing :ms
        "@5",                // missing verb
    };
    for (const char *spec : bad)
    {
        base::FaultInjector injector;
        std::string error;
        EXPECT_FALSE(injector.parseChaosSpec(spec, &error))
            << "accepted: " << spec;
        EXPECT_FALSE(error.empty()) << spec;
        EXPECT_TRUE(injector.scheduledFaults().empty())
            << "partial schedule from: " << spec;
    }
}

TEST(FaultInjectorChaos, EventsFireOnceAtTheScheduledStep)
{
    base::FaultInjector injector;
    injector.scheduleFault(
        {base::FaultKind::KillActor, /*actorId=*/0, /*atStep=*/5, 0});
    injector.scheduleFault({base::FaultKind::StallActor, 0, 3, 40});

    EXPECT_FALSE(injector.onActorStep(1, 100).kill)
        << "wrong actor must never fire";
    auto act = injector.onActorStep(0, 2);
    EXPECT_FALSE(act.kill);
    EXPECT_EQ(act.stallMs, 0u);
    // Step 4 is past the stall's step 3: due events fire on the
    // first hook call at-or-after their step.
    act = injector.onActorStep(0, 4);
    EXPECT_EQ(act.stallMs, 40u);
    EXPECT_FALSE(act.kill);
    act = injector.onActorStep(0, 7);
    EXPECT_TRUE(act.kill);
    EXPECT_EQ(act.stallMs, 0u) << "stall already fired";
    act = injector.onActorStep(0, 8);
    EXPECT_FALSE(act.kill) << "events are one-shot";

    EXPECT_EQ(injector.tripCount(base::FaultKind::KillActor), 1u);
    EXPECT_EQ(injector.tripCount(base::FaultKind::StallActor), 1u);
    std::uint64_t total = 0;
    for (std::size_t k = 0; k < base::numFaultKinds; ++k)
        total += injector.tripCount(static_cast<base::FaultKind>(k));
    EXPECT_EQ(total, 2u);
}

TEST(FaultInjectorChaos, LearnerAndSnapshotHooks)
{
    base::FaultInjector injector;
    injector.scheduleFault(
        {base::FaultKind::KillLearner, 0, /*atStep=*/100, 0});
    injector.scheduleFault(
        {base::FaultKind::DelaySnapshot, 0, /*atStep=*/2, 15});

    EXPECT_FALSE(injector.onLearnerDrain(99));
    EXPECT_TRUE(injector.onLearnerDrain(250));
    EXPECT_FALSE(injector.onLearnerDrain(300)) << "one-shot";
    EXPECT_EQ(injector.onSnapshotPublish(1), 0u);
    EXPECT_EQ(injector.onSnapshotPublish(2), 15u);
    EXPECT_EQ(injector.onSnapshotPublish(3), 0u) << "one-shot";
}

TEST(FaultInjectorChaos, HooksAreSafeFromConcurrentThreads)
{
    // Many threads hammer the hooks of a shared injector; every
    // event must fire exactly once in total (CAS on its own flag).
    constexpr std::size_t kEvents = 64;
    constexpr std::size_t kThreads = 4;
    base::FaultInjector injector;
    for (std::size_t e = 0; e < kEvents; ++e)
        injector.scheduleFault({base::FaultKind::CorruptTransition,
                                e % kThreads, e / kThreads + 1, 0});

    std::atomic<std::uint64_t> observed{0};
    std::vector<std::thread> threads;
    for (std::size_t t = 0; t < kThreads; ++t)
    {
        threads.emplace_back([&injector, &observed, t] {
            for (std::uint64_t step = 1; step <= kEvents; ++step)
            {
                // Every thread polls every actor id, so each event
                // is contended by all threads.
                for (std::size_t a = 0; a < kThreads; ++a)
                    if (injector.onActorStep(a, step).corrupt)
                        observed.fetch_add(
                            1, std::memory_order_relaxed);
            }
        });
    }
    for (auto &t : threads)
        t.join();
    // Merged actions can report several corrupt events as one
    // action, so count trips at the injector, not observations.
    EXPECT_EQ(injector.tripCount(base::FaultKind::CorruptTransition),
              kEvents);
    EXPECT_GE(observed.load(), 1u);
}

// --- Supervised runs under chaos --------------------------------

TEST(Supervisor, ChaosKillAndStallRunCompletesEveryEpisode)
{
    // The acceptance drill: 4 actors, a fixed schedule kills
    // one and stalls another; training must complete the configured
    // run length and the supervisor must report exactly the
    // scheduled trips.
    //
    // Every fault fires at its target's FIRST step, and the actors
    // that are neither killed nor wedged get a short nap there too.
    // On a single-CPU box one actor can otherwise finish the whole
    // run inside its first scheduler timeslice before the targets
    // ever execute; gating each actor's step 1 with its own event
    // makes the drill scheduling-proof.
    const std::size_t episodes = 40;
    base::FaultInjector injector;
    std::string error;
    ASSERT_TRUE(injector.parseChaosSpec(
        "stall:0@1:30,kill:1@1,stall:2@1:120,stall:3@1:30,"
        "delay-snap@1:5",
        &error))
        << error;

    async::AsyncConfig acfg;
    acfg.actors = 4;
    acfg.watchdogDeadlineMs = 25;
    acfg.degradeAfterMs = 60000; // Trip-only: never degrade here.
    const auto result = runChaos(episodes, acfg, &injector);

    ASSERT_EQ(result.episodeRewards.size(), episodes);
    for (Real r : result.episodeRewards)
        EXPECT_TRUE(std::isfinite(r));
    EXPECT_FALSE(result.learnerFailed);
    EXPECT_EQ(result.restarts, 1u);
    EXPECT_EQ(result.degradations, 0u);
    EXPECT_GE(result.watchdogTrips, 1u) << "120ms stall vs 25ms "
                                           "deadline must trip";
    EXPECT_EQ(injector.tripCount(base::FaultKind::KillActor), 1u);
    EXPECT_EQ(injector.tripCount(base::FaultKind::StallActor), 3u);
    EXPECT_EQ(injector.tripCount(base::FaultKind::DelaySnapshot),
              1u);
    EXPECT_EQ(injector.tripCount(base::FaultKind::KillLearner), 0u);
    expectConservation(result);
    EXPECT_EQ(result.ringResidual, 0u)
        << "a surviving learner drains everything";
}

TEST(Supervisor, CorruptTransitionIsQuarantinedNotTrained)
{
    const std::size_t episodes = 10;
    base::FaultInjector injector;
    injector.scheduleFault(
        {base::FaultKind::CorruptTransition, 0, 2, 0});

    async::AsyncConfig acfg;
    acfg.actors = 2;
    const auto result = runChaos(episodes, acfg, &injector);

    ASSERT_EQ(result.episodeRewards.size(), episodes);
    EXPECT_EQ(injector.tripCount(base::FaultKind::CorruptTransition),
              1u);
    EXPECT_EQ(result.quarantined, 1u);
    EXPECT_FALSE(result.halted)
        << "the poisoned record must never reach an update";
    for (Real r : result.episodeRewards)
        EXPECT_TRUE(std::isfinite(r));
    expectConservation(result);
}

TEST(Supervisor, ExhaustedRestartBudgetDegradesTheActor)
{
    // maxRestarts=0: the first crash degrades deterministically and
    // the surviving fleet still completes every episode (the dead
    // actor's claims return to the reclaim pool). The healthy
    // actors nap at their first step so the doomed one is
    // guaranteed a slice before the pool drains (single-CPU boxes).
    const std::size_t episodes = 15;
    base::FaultInjector injector;
    injector.scheduleFault({base::FaultKind::StallActor, 0, 1, 30});
    injector.scheduleFault({base::FaultKind::StallActor, 1, 1, 30});
    injector.scheduleFault({base::FaultKind::KillActor, 2, 1, 0});

    async::AsyncConfig acfg;
    acfg.actors = 3;
    acfg.maxActorRestarts = 0;
    const auto result = runChaos(episodes, acfg, &injector);

    ASSERT_EQ(result.episodeRewards.size(), episodes);
    EXPECT_EQ(result.restarts, 0u);
    EXPECT_EQ(result.degradations, 1u);
    EXPECT_FALSE(result.learnerFailed);
    expectConservation(result);
}

TEST(Supervisor, KillLearnerHaltsTheFleetWithAccounting)
{
    const std::size_t episodes = 12;
    base::FaultInjector injector;
    injector.scheduleFault(
        {base::FaultKind::KillLearner, 0, /*drained=*/100, 0});

    async::AsyncConfig acfg;
    acfg.actors = 2;
    const auto result = runChaos(episodes, acfg, &injector);

    EXPECT_TRUE(result.learnerFailed);
    EXPECT_NE(result.learnerError.find("chaos"), std::string::npos)
        << result.learnerError;
    EXPECT_EQ(injector.tripCount(base::FaultKind::KillLearner), 1u);
    // Conservation still holds with a dead consumer: whatever the
    // actors pushed after the death stays in the rings, counted.
    expectConservation(result);
}

TEST(Supervisor, AsyncCheckpointWritesAndResumesAFinishedRun)
{
    TempDir dir("resume_done");
    const std::size_t episodes = 8;
    const core::TrainConfig config = chaosTestConfig();

    async::AsyncConfig acfg;
    acfg.actors = 2;
    acfg.checkpointDir = dir.path.string();
    acfg.checkpointEveryUpdates = 1;
    const auto first = runChaos(episodes, acfg, nullptr);
    ASSERT_EQ(first.episodeRewards.size(), episodes);
    EXPECT_GE(first.checkpointsSaved, 1u)
        << "clean exit must leave a final snapshot";

    // Resuming a finished run restores the full episode prefix and
    // completes immediately without re-running anything.
    auto trainer2 = makeMaddpg(config);
    async::AsyncConfig rcfg = acfg;
    rcfg.resume = true;
    const auto second =
        runChaos(episodes, rcfg, nullptr, trainer2.get());
    EXPECT_EQ(second.resumedFromEpisode, episodes);
    ASSERT_EQ(second.episodeRewards.size(), episodes);
    EXPECT_EQ(second.envSteps, 0u)
        << "nothing left to claim after a full-prefix resume";
}

TEST(Supervisor, KillLearnerThenResumeCompletesTheRun)
{
    // The crash drill: periodic learner-side snapshots, a scheduled
    // learner kill mid-run, then a second loop resumes from the last
    // snapshot and finishes the full run length.
    TempDir dir("resume_kill");
    const std::size_t episodes = 12;
    const core::TrainConfig config = chaosTestConfig();

    base::FaultInjector injector;
    injector.scheduleFault(
        {base::FaultKind::KillLearner, 0, /*drained=*/150, 0});

    async::AsyncConfig acfg;
    acfg.actors = 2;
    acfg.checkpointDir = dir.path.string();
    acfg.checkpointEveryUpdates = 1;
    const auto crashed = runChaos(episodes, acfg, &injector);
    EXPECT_TRUE(crashed.learnerFailed);
    // Structurally guaranteed: the kill fires at the end of the
    // drain cycle that crosses 150, after that cycle's update and
    // checkpoint — and 150 drained records are past warmup 64, so
    // either that cycle or an earlier one has checkpointed.
    ASSERT_GE(crashed.checkpointsSaved, 1u)
        << "warmup 64 + updateEvery 25 must checkpoint before "
           "the kill at drained >= 150";

    auto trainer2 = makeMaddpg(config);
    async::AsyncConfig rcfg = acfg;
    rcfg.resume = true;
    const auto resumed =
        runChaos(episodes, rcfg, nullptr, trainer2.get());
    EXPECT_FALSE(resumed.learnerFailed);
    ASSERT_EQ(resumed.episodeRewards.size(), episodes);
    for (Real r : resumed.episodeRewards)
        EXPECT_TRUE(std::isfinite(r));
    expectConservation(resumed);
}

TEST(Supervisor, SupervisionCountersSurfaceInObsRegistry)
{
    auto &registry = obs::Registry::instance();
    registry.resetAll();

    base::FaultInjector injector;
    injector.scheduleFault({base::FaultKind::StallActor, 0, 1, 30});
    injector.scheduleFault({base::FaultKind::KillActor, 1, 1, 0});
    async::AsyncConfig acfg;
    acfg.actors = 2;
    const auto result = runChaos(10, acfg, &injector);

    EXPECT_EQ(registry.counter("supervisor.restarts").value(),
              result.restarts);
    EXPECT_EQ(registry.counter("supervisor.degradations").value(),
              result.degradations);
    EXPECT_EQ(registry.counter("async.quarantined").value(),
              result.quarantined);
    EXPECT_EQ(registry.counter("fault.kill-actor").value(), 1u);
}

TEST(Supervisor, CountersAreLiveDuringTheRun)
{
    // A restart and the fault that caused it reach the registry
    // when they happen, not after the run: the watchdog tick's hook
    // (where the CLI serves /metrics) already sees them. The last
    // tick comes after the last event, so its reads are the run's
    // full counts.
    auto &registry = obs::Registry::instance();
    registry.resetAll();
    const obs::Counter &restarts =
        registry.counter("supervisor.restarts");
    const obs::Counter &killActor =
        registry.counter("fault.kill-actor");

    base::FaultInjector injector;
    injector.scheduleFault({base::FaultKind::KillActor, 1, 1, 0});
    async::AsyncConfig acfg;
    acfg.actors = 2;
    std::uint64_t lastTickRestarts = 0;
    std::uint64_t lastTickKills = 0;
    const auto result =
        runChaos(10, acfg, &injector, nullptr,
                 [&](async::AsyncTrainLoop &loop) {
                     loop.setSupervisorHook([&] {
                         lastTickRestarts = restarts.value();
                         lastTickKills = killActor.value();
                     });
                 });

    EXPECT_GE(result.restarts, 1u);
    EXPECT_EQ(lastTickRestarts, result.restarts);
    EXPECT_EQ(injector.tripCount(base::FaultKind::KillActor), 1u);
    EXPECT_EQ(lastTickKills,
              injector.tripCount(base::FaultKind::KillActor));
}

TEST(Supervisor, TelemetryStepRecordsCarryLiveRegistryCounters)
{
    // Step records report ring, quarantine and supervision
    // accounting only through their registry snapshot, so the
    // snapshot must hold those counters from the first record on,
    // and no counter in it may fall from one record to the next.
    auto &registry = obs::Registry::instance();
    registry.resetAll();
    TempDir dir("telemetry");
    const std::string path = (dir.path / "async.jsonl").string();

    base::FaultInjector injector;
    injector.scheduleFault(
        {base::FaultKind::CorruptTransition, 0, 2, 0});
    async::AsyncConfig acfg;
    acfg.actors = 2;
    async::AsyncTrainResult result;
    {
        obs::TelemetryWriter writer(path, {{"test", "async"}});
        ASSERT_TRUE(writer.ok());
        result = runChaos(10, acfg, &injector, nullptr,
                          [&writer](async::AsyncTrainLoop &loop) {
                              loop.setTelemetry(&writer, 5);
                          });
    }
    ASSERT_EQ(result.quarantined, 1u);

    std::ifstream in(path);
    std::vector<std::string> lines;
    for (std::string line; std::getline(in, line);)
        lines.push_back(line);
    ASSERT_GE(lines.size(), 2u);

    const std::regex counterRe(
        R"re("([^"]+)":\{"kind":"counter","count":(\d+)\})re");
    std::map<std::string, std::uint64_t> previous;
    std::size_t steps = 0;
    for (const std::string &line : lines)
    {
        if (line.find("\"record\":\"step\"") == std::string::npos)
            continue;
        ++steps;
        std::map<std::string, std::uint64_t> counts;
        for (std::sregex_iterator it(line.begin(), line.end(),
                                     counterRe),
             end;
             it != end; ++it)
            counts[(*it)[1]] = std::stoull((*it)[2]);
        for (const char *name : {"async.ring.pushed",
                                 "async.quarantined",
                                 "supervisor.restarts"})
            EXPECT_EQ(counts.count(name), 1u)
                << name << " missing from step record " << steps;
        for (const auto &[name, count] : previous)
            EXPECT_GE(counts[name], count)
                << name << " fell at step record " << steps;
        previous = std::move(counts);
    }
    EXPECT_GE(steps, 2u);

    const std::string &summary = lines.back();
    ASSERT_NE(summary.find("\"record\":\"summary\""),
              std::string::npos);
    EXPECT_NE(summary.find("\"async.quarantined\":{\"kind\":"
                           "\"counter\",\"count\":" +
                           std::to_string(result.quarantined) + "}"),
              std::string::npos);
}

// --- Watchdog stall policy --------------------------------------

TEST(Watchdog, StallPastDegradeDeadlineDegradesTheActor)
{
    // A 600ms wedge against a 50ms deadline and 150ms degrade
    // budget: the watchdog must trip, then degrade the actor; the
    // healthy peer absorbs its reclaimed episodes and the run still
    // completes in full. The healthy actor naps 30ms (under the
    // deadline, so no trip of its own) at step 1 to guarantee the
    // victim a slice before the pool drains on a single-CPU box.
    const std::size_t episodes = 20;
    base::FaultInjector injector;
    injector.scheduleFault({base::FaultKind::StallActor, 0, 1, 30});
    injector.scheduleFault({base::FaultKind::StallActor, 1, 1, 600});

    async::AsyncConfig acfg;
    acfg.actors = 2;
    acfg.watchdogDeadlineMs = 50;
    acfg.degradeAfterMs = 150;
    const auto result = runChaos(episodes, acfg, &injector);

    ASSERT_EQ(result.episodeRewards.size(), episodes);
    EXPECT_GE(result.watchdogTrips, 1u);
    EXPECT_EQ(result.degradations, 1u);
    EXPECT_EQ(result.restarts, 0u)
        << "a stalled thread cannot be restarted, only degraded";
    expectConservation(result);
}

TEST(Watchdog, ShortStallTripsWithoutDegrading)
{
    // A stall shorter than the degrade budget recovers: trip
    // latched and released, fleet intact.
    const std::size_t episodes = 10;
    base::FaultInjector injector;
    injector.scheduleFault({base::FaultKind::StallActor, 0, 5, 120});

    async::AsyncConfig acfg;
    acfg.actors = 2;
    acfg.watchdogDeadlineMs = 25;
    acfg.degradeAfterMs = 60000;
    const auto result = runChaos(episodes, acfg, &injector);

    ASSERT_EQ(result.episodeRewards.size(), episodes);
    EXPECT_GE(result.watchdogTrips, 1u);
    EXPECT_EQ(result.degradations, 0u);
    EXPECT_EQ(result.ringResidual, 0u);
    expectConservation(result);
}

} // namespace
} // namespace marlin

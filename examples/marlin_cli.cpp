/**
 * @file
 * Full command-line training driver: pick the algorithm, task,
 * sampler, layout backend and hyper-parameters; optionally save the
 * trained networks to a checkpoint. This is the "run the paper" entry
 * point for users who don't want to write C++.
 *
 *   ./marlin_cli --algo maddpg --task pp --agents 6 \
 *       --sampler locality --neighbors 16 --episodes 2000 \
 *       --save-checkpoint run.ckpt
 *
 * Crash-safe mode: --checkpoint-dir rotates full-state snapshots
 * every --checkpoint-every episodes and auto-resumes from them, so
 * a killed run picks up where the last snapshot left off:
 *
 *   ./marlin_cli --task cn --episodes 2000 --checkpoint-dir ckpts
 *
 * Live introspection: --stats-port N serves GET /metrics (Prometheus
 * text of the whole obs registry) and /healthz while training runs.
 * In async mode scrapes are serviced by the supervisor's watchdog
 * tick — the actor and learner hot paths never touch a socket.
 */

#include <cstdio>
#include <cstdlib>

#include "marlin/base/args.hh"
#include "marlin/base/fault_injector.hh"
#include "marlin/core/checkpoint.hh"
#include "marlin/env/physical_deception.hh"
#include "marlin/marlin.hh"
#include "marlin/replay/rank_sampler.hh"
#include "marlin/replay/reuse_sampler.hh"

using namespace marlin;

namespace
{

std::unique_ptr<env::Environment>
buildEnvironment(const std::string &task, std::size_t agents,
                 std::uint64_t seed)
{
    if (task == "pp")
        return env::makePredatorPreyEnv(agents, seed);
    if (task == "cn")
        return env::makeCooperativeNavigationEnv(agents, seed);
    if (task == "pd") {
        env::PhysicalDeceptionConfig cfg;
        cfg.numGoodAgents = agents > 1 ? agents - 1 : 1;
        return std::make_unique<env::Environment>(
            std::make_unique<env::PhysicalDeceptionScenario>(cfg),
            seed);
    }
    fatal("unknown task '%s' (expected pp, cn or pd)", task.c_str());
}

core::SamplerFactory
buildSamplerFactory(const std::string &sampler, std::size_t neighbors,
                    BufferIndex capacity, std::size_t reuse_window)
{
    if (sampler == "uniform") {
        return [] {
            return std::make_unique<replay::UniformSampler>();
        };
    }
    if (sampler == "locality") {
        return [neighbors] {
            return std::make_unique<replay::LocalityAwareSampler>(
                replay::LocalityConfig{neighbors, 0});
        };
    }
    if (sampler == "per") {
        return [capacity] {
            replay::PerConfig cfg;
            cfg.capacity = capacity;
            return std::make_unique<replay::PrioritizedSampler>(cfg);
        };
    }
    if (sampler == "per-rank") {
        return [capacity] {
            replay::PerConfig cfg;
            cfg.capacity = capacity;
            return std::make_unique<replay::RankBasedSampler>(cfg);
        };
    }
    if (sampler == "ip") {
        return [capacity] {
            replay::PerConfig cfg;
            cfg.capacity = capacity;
            return std::make_unique<
                replay::InfoPrioritizedLocalitySampler>(cfg);
        };
    }
    if (sampler == "accmer") {
        return [capacity, neighbors, reuse_window] {
            replay::PerConfig cfg;
            cfg.capacity = capacity;
            replay::ReuseConfig reuse;
            reuse.reuseWindow = reuse_window;
            reuse.runLength = neighbors;
            return std::make_unique<replay::ReuseSampler>(cfg,
                                                          reuse);
        };
    }
    fatal("unknown sampler '%s' (expected uniform, locality, per, "
          "per-rank, ip or accmer)",
          sampler.c_str());
}

} // namespace

int
main(int argc, char **argv)
{
    ArgParser args("marlin_cli");
    args.addOption("algo", "maddpg", "algorithm: maddpg or matd3");
    args.addOption("task", "cn",
                   "task: pp (predator-prey), cn (cooperative "
                   "navigation), pd (physical deception)");
    args.addOption("agents", "3", "number of trained agents");
    args.addOption("episodes", "1000", "training episodes");
    args.addOption("sampler", "uniform",
                   "uniform, locality, per, per-rank, ip or accmer");
    args.addOption("neighbors", "16",
                   "neighbor run length for --sampler locality and "
                   "accmer");
    args.addOption("reuse-window", "4",
                   "plans per fresh sum-tree draw for --sampler "
                   "accmer");
    args.addOption("batch", "128", "mini-batch size");
    args.addOption("buffer", "32768", "replay capacity");
    args.addOption("replay-capacity", "0",
                   "replay capacity for the sharded engine (0 = "
                   "--buffer); accepts >RAM sizes with a cold dir");
    args.addOption("replay-shards", "1",
                   "power-of-two replay shard count (>1 selects the "
                   "sharded backend; sampling is bit-identical for "
                   "any value)");
    args.addOption("replay-hot", "0",
                   "transitions kept in RAM by the sharded backend "
                   "(0 = all hot); the rest spills to "
                   "--replay-cold-dir");
    args.addOption("replay-cold-dir", "",
                   "mmap cold-segment directory for the sharded "
                   "backend (enables out-of-core replay)");
    args.addOption("update-every", "50",
                   "insertions between updates");
    args.addOption("lr", "0.01", "Adam learning rate");
    args.addOption("gamma", "0.95", "discount factor");
    args.addOption("seed", "7", "RNG seed");
    args.addOption("threads", "0",
                   "worker threads for the training hot path "
                   "(0 = MARLIN_THREADS env var or hardware "
                   "concurrency; results are identical for any "
                   "value)");
    args.addOption("actors", "0",
                   "rollout threads: 1 = the deterministic lockstep "
                   "loop, >1 = the async actor-learner runtime "
                   "(0 = MARLIN_ACTORS env var or 1)");
    args.addOption("lanes", "1",
                   "environment lanes per actor (async mode)");
    args.addOption("ring-capacity", "4096",
                   "transition-ring records per actor (async mode; "
                   "rounded up to a power of two)");
    args.addOption("watchdog-ms", "250",
                   "async supervisor: actor-stall watchdog deadline "
                   "in ms (0 disables stall detection; crashed "
                   "actors are always detected)");
    args.addOption("max-restarts", "2",
                   "async supervisor: crash restarts per actor "
                   "before it is degraded");
    args.addOption("async-checkpoint-every", "50",
                   "learner updates between rotating snapshots for "
                   "--checkpoint-dir in async mode");
    args.addOption("chaos", "",
                   "async-only fault schedule, e.g. "
                   "'kill:1@120,stall:2@200:50,corrupt:0@300,"
                   "kill-learner@400,delay-snap@3:20'");
    args.addOption("isa", "auto",
                   "kernel instruction set: auto, scalar or avx2 "
                   "(auto = MARLIN_ISA env var or best supported; "
                   "results are identical per ISA for any thread "
                   "count)");
    args.addOption("save-checkpoint", "",
                   "write a trainer-only checkpoint (networks, "
                   "optimizer and sampler state) here after training");
    args.addOption("checkpoint-dir", "",
                   "rotate full-state latest/previous snapshots "
                   "here and auto-resume from them");
    args.addOption("checkpoint-every", "10",
                   "episodes between snapshots for "
                   "--checkpoint-dir");
    args.addOption("health", "off",
                   "non-finite loss/gradient policy: off, halt, "
                   "skip or rollback (rollback needs "
                   "--checkpoint-dir)");
    args.addOption("telemetry", "",
                   "stream per-step run telemetry (JSONL) to this "
                   "path; training numerics are unchanged");
    args.addOption("telemetry-every", "1",
                   "environment steps between telemetry records");
    args.addOption("stats-port", "-1",
                   "serve live GET /metrics + /healthz (Prometheus "
                   "text) on this port during training (0 binds an "
                   "ephemeral port, -1 disables)");
    args.addOption("stats-port-file", "",
                   "write the bound stats port here (one line)");
    args.addOption("trace", "",
                   "export a Chrome/Perfetto trace_event JSON of "
                   "phase spans, pool tasks and checkpoint writes "
                   "to this path");
    args.addOption("trace-capacity", "262144",
                   "trace ring capacity in events; overflow is "
                   "counted, never silently lost");
    args.addOption("log-level", "inform",
                   "silent, fatal, warn, inform or debug");
    args.addFlag("interleaved",
                 "use the reorganized record-major replay layout (a "
                 "one-shard, all-hot sharded store)");
    args.addFlag("continuous",
                 "tanh actors emitting 2D forces (OU exploration) "
                 "instead of 5 discrete actions");
    args.parse(argc, argv);

    setLogLevel(parseLogLevel(args.get("log-level")));

    const auto agents =
        static_cast<std::size_t>(args.getInt("agents"));
    const auto episodes =
        static_cast<std::size_t>(args.getInt("episodes"));

    base::ThreadPool::setGlobalThreads(
        static_cast<std::size_t>(args.getInt("threads")));
    std::printf("threads: %zu (deterministic for any count)\n",
                base::ThreadPool::globalThreads());

    // Flag beats env var beats the lockstep default.
    std::size_t actors =
        static_cast<std::size_t>(args.getInt("actors"));
    if (actors == 0) {
        const char *env = std::getenv("MARLIN_ACTORS");
        if (env != nullptr)
            actors = static_cast<std::size_t>(
                std::strtoul(env, nullptr, 10));
        if (actors == 0)
            actors = 1;
    }
    std::printf("actors: %zu (%s)\n", actors,
                actors > 1 ? "async actor-learner runtime"
                           : "deterministic lockstep loop");

    if (args.get("isa") != "auto") {
        const auto isa =
            numeric::kernels::isaFromString(args.get("isa"));
        if (!isa.has_value()) {
            fatal("--isa '%s' is not 'auto', 'scalar' or 'avx2'",
                  args.get("isa").c_str());
        }
        numeric::kernels::setIsa(*isa);
    }
    std::printf("isa: %s (cpu: %s)\n",
                numeric::kernels::isaName(
                    numeric::kernels::activeIsa()),
                base::cpuVectorFeatures());

    auto environment = buildEnvironment(
        args.get("task"), agents,
        static_cast<std::uint64_t>(args.getInt("seed")));

    core::TrainConfig config;
    config.batchSize = static_cast<std::size_t>(args.getInt("batch"));
    config.bufferCapacity =
        static_cast<BufferIndex>(args.getInt("buffer"));
    if (args.getInt("replay-capacity") > 0) {
        config.bufferCapacity =
            static_cast<BufferIndex>(args.getInt("replay-capacity"));
    }
    config.updateEvery =
        static_cast<std::size_t>(args.getInt("update-every"));
    config.warmupTransitions = config.batchSize * 2;
    config.lr = static_cast<Real>(args.getDouble("lr"));
    config.gamma = static_cast<Real>(args.getDouble("gamma"));
    config.epsilonDecayEpisodes = episodes / 2;
    config.seed = static_cast<std::uint64_t>(args.getInt("seed"));
    // The shard and cold-tier knobs select the sharded store on their
    // own (core::makeReplayStore); --interleaved asks for it with the
    // default one all-hot shard.
    if (args.getFlag("interleaved"))
        config.backend = core::SamplingBackend::Sharded;
    config.replayShards =
        static_cast<std::size_t>(args.getInt("replay-shards"));
    config.replayHotCapacity =
        static_cast<BufferIndex>(args.getInt("replay-hot"));
    config.replayColdDir = args.get("replay-cold-dir");
    if (args.getFlag("continuous"))
        config.actionMode = core::ActionMode::Continuous;

    const std::string health = args.get("health");
    if (health == "halt") {
        config.healthPolicy = core::HealthGuardPolicy::Halt;
    } else if (health == "skip") {
        config.healthPolicy = core::HealthGuardPolicy::SkipUpdate;
    } else if (health == "rollback") {
        config.healthPolicy = core::HealthGuardPolicy::Rollback;
    } else if (health != "off") {
        fatal("unknown health policy '%s' (expected off, halt, "
              "skip or rollback)",
              health.c_str());
    }

    std::vector<std::size_t> dims;
    for (std::size_t i = 0; i < environment->numAgents(); ++i)
        dims.push_back(environment->obsDim(i));

    auto factory = buildSamplerFactory(
        args.get("sampler"),
        static_cast<std::size_t>(args.getInt("neighbors")),
        config.bufferCapacity,
        static_cast<std::size_t>(args.getInt("reuse-window")));

    const std::size_t act_dim =
        config.actionMode == core::ActionMode::Continuous
            ? 2
            : environment->actionDim();
    std::unique_ptr<core::CtdeTrainerBase> trainer;
    const std::string algo = args.get("algo");
    if (algo == "maddpg") {
        trainer = std::make_unique<core::MaddpgTrainer>(
            dims, act_dim, config, factory);
    } else if (algo == "matd3") {
        trainer = std::make_unique<core::Matd3Trainer>(
            dims, act_dim, config, factory);
    } else {
        fatal("unknown algo '%s'", algo.c_str());
    }

    // Observability sinks. Both are pure observers: enabling them
    // changes no training numerics and no checkpoint bytes.
    const std::string telemetry_path = args.get("telemetry");
    const std::string trace_path = args.get("trace");
    if (!telemetry_path.empty() || !trace_path.empty())
        numeric::kernels::setCounting(true);
    if (!trace_path.empty()) {
        obs::TraceRing::enable(static_cast<std::size_t>(
            args.getInt("trace-capacity")));
    }
    // Opened once a loop owns its replay store, so the header's
    // layout field names the backend the run actually uses.
    std::unique_ptr<obs::TelemetryWriter> telemetry;
    const auto open_telemetry = [&](const replay::ReplayStore &store) {
        if (telemetry_path.empty())
            return;
        telemetry = std::make_unique<obs::TelemetryWriter>(
            telemetry_path,
            std::vector<std::pair<std::string, std::string>>{
                {"tool", "marlin_cli"},
                {"algo", algo},
                {"task", args.get("task")},
                {"agents", args.get("agents")},
                {"episodes", args.get("episodes")},
                {"sampler", args.get("sampler")},
                {"seed", args.get("seed")},
                {"actors", std::to_string(actors)},
                {"threads",
                 std::to_string(base::ThreadPool::globalThreads())},
                {"isa",
                 numeric::kernels::isaName(
                     numeric::kernels::activeIsa())},
                {"layout", store.backendName()},
            });
        if (!telemetry->ok())
            fatal("cannot open --telemetry path '%s'",
                  telemetry_path.c_str());
    };

    // Live introspection endpoint. In async mode the supervisor's
    // watchdog tick services scrapes, so neither the actors nor the
    // learner hot path ever touches a socket; the lockstep loop has
    // no idle thread, so a background thread serves there instead.
    std::unique_ptr<serve::MetricsHttp> stats;
    const long statsPort = args.getInt("stats-port");
    if (statsPort >= 0) {
        serve::MetricsHttpConfig mcfg;
        mcfg.port = static_cast<std::uint16_t>(statsPort);
        stats = std::make_unique<serve::MetricsHttp>(mcfg);
        if (!stats->start())
            fatal("cannot listen on stats port %ld", statsPort);
        std::printf("stats: port %u (GET /metrics, /healthz)\n",
                    static_cast<unsigned>(stats->port()));
        std::fflush(stdout);
        if (!args.get("stats-port-file").empty()) {
            std::FILE *f = std::fopen(
                args.get("stats-port-file").c_str(), "w");
            if (f == nullptr)
                fatal("cannot write --stats-port-file '%s'",
                      args.get("stats-port-file").c_str());
            std::fprintf(f, "%u\n",
                         static_cast<unsigned>(stats->port()));
            std::fclose(f);
        }
    }

    std::printf("%s on %s: %zu agents, %zu episodes, sampler=%s%s\n",
                algo.c_str(),
                environment->scenario().name().c_str(),
                environment->numAgents(), episodes,
                args.get("sampler").c_str(),
                args.getFlag("interleaved") ? ", interleaved layout"
                                            : "");

    if (actors > 1) {
        const std::string task = args.get("task");
        async::AsyncConfig acfg;
        acfg.actors = actors;
        acfg.lanesPerActor =
            static_cast<std::size_t>(args.getInt("lanes"));
        acfg.ringCapacity =
            static_cast<std::size_t>(args.getInt("ring-capacity"));
        acfg.watchdogDeadlineMs = static_cast<std::uint64_t>(
            args.getInt("watchdog-ms"));
        acfg.maxActorRestarts =
            static_cast<std::size_t>(args.getInt("max-restarts"));
        // Async checkpointing: learner-side rotating snapshots of
        // the contiguous completed-episode prefix. Resume is
        // throughput-equivalent, not bit-identical; --actors 1 keeps
        // the bit-identical contract.
        acfg.checkpointDir = args.get("checkpoint-dir");
        acfg.checkpointEveryUpdates = static_cast<std::size_t>(
            args.getInt("async-checkpoint-every"));
        acfg.resume = !acfg.checkpointDir.empty();
        async::AsyncTrainLoop loop(
            *trainer,
            [&task, agents](std::uint64_t seed) {
                return buildEnvironment(task, agents, seed);
            },
            [&](std::uint64_t seed) {
                core::TrainConfig actor_config = config;
                actor_config.seed = seed;
                std::unique_ptr<core::CtdeTrainerBase> policy;
                if (algo == "maddpg") {
                    policy = std::make_unique<core::MaddpgTrainer>(
                        dims, act_dim, actor_config, factory);
                } else {
                    policy = std::make_unique<core::Matd3Trainer>(
                        dims, act_dim, actor_config, factory);
                }
                return policy;
            },
            config, acfg);
        open_telemetry(loop.buffer());
        if (telemetry) {
            loop.setTelemetry(telemetry.get(),
                              static_cast<std::size_t>(
                                  args.getInt("telemetry-every")));
        }
        if (stats) {
            serve::MetricsHttp *http = stats.get();
            loop.setSupervisorHook([http] { http->serviceOnce(0); });
        }
        base::FaultInjector injector(
            static_cast<std::uint64_t>(args.getInt("seed")));
        if (!args.get("chaos").empty()) {
            std::string chaos_error;
            if (!injector.parseChaosSpec(args.get("chaos"),
                                         &chaos_error)) {
                fatal("--chaos: %s", chaos_error.c_str());
            }
            loop.setFaultInjector(&injector);
            inform("chaos armed: %zu scheduled fault(s)",
                   injector.scheduledFaults().size());
        }
        auto result = loop.run(episodes);

        if (result.nonFiniteUpdates > 0) {
            warn("%zu update(s) saw non-finite losses/gradients "
                 "(policy: %s)",
                 result.nonFiniteUpdates, health.c_str());
        }
        if (result.halted)
            warn("run halted by the numeric health guard");
        if (result.ringDropped > 0) {
            inform("rings dropped %llu transition(s) (seq gaps: "
                   "%llu); raise --ring-capacity to keep more",
                   static_cast<unsigned long long>(
                       result.ringDropped),
                   static_cast<unsigned long long>(
                       result.ringSeqGaps));
        }
        if (result.restarts > 0 || result.degradations > 0 ||
            result.watchdogTrips > 0 || result.quarantined > 0) {
            inform("supervisor: %llu restart(s), %llu "
                   "degradation(s), %llu watchdog trip(s), %llu "
                   "quarantined transition(s)",
                   static_cast<unsigned long long>(result.restarts),
                   static_cast<unsigned long long>(
                       result.degradations),
                   static_cast<unsigned long long>(
                       result.watchdogTrips),
                   static_cast<unsigned long long>(
                       result.quarantined));
        }
        if (result.resumedFromEpisode > 0) {
            inform("resumed from episode %llu",
                   static_cast<unsigned long long>(
                       result.resumedFromEpisode));
        }
        if (result.checkpointsSaved > 0) {
            inform("saved %llu rotating checkpoint(s) to '%s'",
                   static_cast<unsigned long long>(
                       result.checkpointsSaved),
                   acfg.checkpointDir.c_str());
        }
        if (result.learnerFailed) {
            // Nonzero exit so CI drills (and real orchestration) see
            // a learner crash as a failed run; the last periodic
            // checkpoint is the recovery path.
            warn("learner failed: %s", result.learnerError.c_str());
            return 1;
        }
        std::printf("\nenv steps %llu (drained %llu), updates %llu, "
                    "weight refreshes %llu\n",
                    static_cast<unsigned long long>(result.envSteps),
                    static_cast<unsigned long long>(
                        result.drainedSteps),
                    static_cast<unsigned long long>(
                        result.updateCalls),
                    static_cast<unsigned long long>(
                        result.weightRefreshes));
        std::printf("final score %.2f | %s\n", result.finalScore,
                    profile::formatTopLevel(
                        profile::topLevelBreakdown(result.timer))
                        .c_str());
        std::printf("%s\n",
                    profile::formatUpdate(
                        profile::updateBreakdown(result.timer))
                        .c_str());
    } else {
        if (!args.get("chaos").empty()) {
            fatal("--chaos drives the async supervisor; rerun with "
                  "--actors 2 or more");
        }
        if (stats)
            stats->startThread();
        core::TrainLoop loop(*environment, *trainer, config);
        open_telemetry(loop.replayStore());
        if (telemetry) {
            loop.setTelemetry(telemetry.get(),
                              static_cast<std::size_t>(
                                  args.getInt("telemetry-every")));
        }
        if (!args.get("checkpoint-dir").empty()) {
            core::CheckpointOptions ckpt;
            ckpt.dir = args.get("checkpoint-dir");
            ckpt.everyEpisodes = static_cast<std::size_t>(
                args.getInt("checkpoint-every"));
            ckpt.resume = true;
            loop.setCheckpointing(ckpt);
        }

        const std::size_t report =
            std::max<std::size_t>(1, episodes / 10);
        double window = 0;
        auto result =
            loop.run(episodes, [&](const core::EpisodeInfo &e) {
                window += e.meanReward;
                if ((e.episode + 1) % report == 0) {
                    std::printf(
                        "  episode %6zu  mean reward %9.2f\n",
                        e.episode + 1, window / report);
                    window = 0;
                }
            });

        if (result.nonFiniteUpdates > 0) {
            warn("%zu update(s) saw non-finite losses/gradients "
                 "(policy: %s)",
                 result.nonFiniteUpdates, health.c_str());
        }
        if (result.halted)
            warn("run halted by the numeric health guard");

        std::printf("\nfinal score %.2f | %s\n", result.finalScore,
                    profile::formatTopLevel(
                        profile::topLevelBreakdown(result.timer))
                        .c_str());
        std::printf("%s\n",
                    profile::formatUpdate(
                        profile::updateBreakdown(result.timer))
                        .c_str());
    }

    if (stats)
        stats->stop();

    if (!args.get("save-checkpoint").empty()) {
        const std::string path = args.get("save-checkpoint");
        core::RunState state;
        state.trainer = trainer.get();
        const core::CkptResult saved = core::saveRunFile(path, state);
        if (!saved) {
            fatal("cannot save checkpoint '%s' (%s: %s)", path.c_str(),
                  core::ckptErrorName(saved.error),
                  saved.detail.c_str());
        }
        inform("saved checkpoint '%s'", path.c_str());
    }

    if (!trace_path.empty()) {
        const obs::TraceRing *ring = obs::TraceRing::active();
        std::string error;
        if (!obs::exportTrace(trace_path, &error)) {
            fatal("trace export to '%s' failed: %s",
                  trace_path.c_str(), error.c_str());
        }
        inform("trace: %zu event(s) -> '%s' (%llu dropped)",
               ring != nullptr ? ring->size() : std::size_t(0),
               trace_path.c_str(),
               static_cast<unsigned long long>(
                   ring != nullptr ? ring->dropped() : 0));
        if (ring != nullptr && ring->dropped() > 0) {
            warn("trace ring overflowed; rerun with a larger "
                 "--trace-capacity to keep every event");
        }
    }
    return 0;
}

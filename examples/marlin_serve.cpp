/**
 * @file
 * Policy-serving daemon: load the latest checkpoint of a training
 * run and answer observation->action queries over the compact TCP
 * protocol, batching concurrent requests into one zero-alloc actor
 * forward per agent.
 *
 *   ./marlin_serve --checkpoint-dir ckpts --task cn --agents 3 \
 *       --port 7777 --batch-max 32 --batch-deadline-us 200
 *
 * Hot reload: SIGHUP swaps in the newest checkpoint immediately;
 * --reload-poll-ms N additionally watches the latest/previous
 * rotation and swaps whenever the training process rotates a new
 * snapshot. Either way no connection is dropped: the swap happens
 * on the event-loop thread between two batch flushes.
 *
 * --port 0 binds an ephemeral port; --port-file writes the bound
 * port as a single line so scripts (CI's serve-smoke gate) can find
 * the server without racing its stdout.
 *
 * --metrics-port N additionally serves GET /metrics (Prometheus
 * text exposition of the whole obs registry) and GET /healthz on a
 * second listener, handled on a background thread so a scrape never
 * delays a batch flush. --metrics-port-file mirrors --port-file.
 */

#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <memory>

#include "marlin/base/args.hh"
#include "marlin/env/physical_deception.hh"
#include "marlin/marlin.hh"

using namespace marlin;

namespace
{

serve::Server *g_server = nullptr;

void
onTerminate(int)
{
    if (g_server != nullptr)
        g_server->stop();
}

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

} // namespace

int
main(int argc, char **argv)
{
    ArgParser args("marlin_serve");
    args.addOption("checkpoint-dir", "",
                   "training run's latest/previous rotation to "
                   "serve (required)");
    args.addOption("algo", "maddpg",
                   "architecture of the checkpoint: maddpg or "
                   "matd3");
    args.addOption("task", "cn",
                   "task the checkpoint was trained on: pp, cn or "
                   "pd (fixes the observation dims)");
    args.addOption("agents", "3", "number of trained agents");
    args.addOption("port", "7777",
                   "TCP port; 0 binds an ephemeral port");
    args.addOption("port-file", "",
                   "write the bound port here (one line) once "
                   "listening");
    args.addOption("metrics-port", "-1",
                   "serve GET /metrics + /healthz here (0 binds an "
                   "ephemeral port, -1 disables)");
    args.addOption("metrics-port-file", "",
                   "write the bound metrics port here (one line)");
    args.addOption("batch-max", "32",
                   "flush a batch at this many queued requests");
    args.addOption("batch-deadline-us", "200",
                   "most time spent waiting for more requests: "
                   "a batch is flushed on an idle loop turn, or "
                   "once its oldest request waited this long; "
                   "after a flush the loop polls this long before "
                   "sleeping (0 = flush every turn, sleep at once)");
    args.addOption("reload-poll-ms", "0",
                   "watch the checkpoint rotation at this cadence "
                   "and hot-swap new weights (0 = SIGHUP only)");
    args.addOption("poller", "auto",
                   "readiness backend: auto, epoll or poll");
    args.addOption("seed", "7",
                   "seed for the architecture-matching trainer "
                   "shell (weights come from the checkpoint)");
    args.addOption("log-level", "inform",
                   "silent, fatal, warn, inform or debug");
    args.addFlag("continuous",
                 "checkpoint was trained with --continuous "
                 "(2D tanh actions instead of 5 discrete)");
    args.parse(argc, argv);

    setLogLevel(parseLogLevel(args.get("log-level")));

    const std::string dir = args.get("checkpoint-dir");
    if (dir.empty())
        fatal("--checkpoint-dir is required");

    const auto agents =
        static_cast<std::size_t>(args.getInt("agents"));
    auto environment = buildEnvironment(
        args.get("task"), agents,
        static_cast<std::uint64_t>(args.getInt("seed")));

    std::vector<std::size_t> dims;
    for (std::size_t i = 0; i < environment->numAgents(); ++i)
        dims.push_back(environment->obsDim(i));

    core::TrainConfig config;
    config.seed = static_cast<std::uint64_t>(args.getInt("seed"));
    if (args.getFlag("continuous"))
        config.actionMode = core::ActionMode::Continuous;
    const std::size_t act_dim =
        config.actionMode == core::ActionMode::Continuous
            ? 2
            : environment->actionDim();

    core::SamplerFactory factory = [] {
        return std::make_unique<replay::UniformSampler>();
    };
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

    serve::ServePolicy policy;
    serve::CheckpointReloader reloader(dir, *trainer, policy);
    const core::CkptResult loaded = reloader.loadNow();
    if (!loaded) {
        fatal("cannot load a checkpoint from '%s' (%s: %s)",
              dir.c_str(), core::ckptErrorName(loaded.error),
              loaded.detail.c_str());
    }
    inform("serving %zu agent(s), obs dims [%zu..], act dim %zu",
           policy.numAgents(), policy.obsDim(0), policy.actDim());

    serve::ServeConfig scfg;
    scfg.port = static_cast<std::uint16_t>(args.getInt("port"));
    scfg.batchMax =
        static_cast<std::size_t>(args.getInt("batch-max"));
    scfg.batchDeadlineUs = static_cast<std::uint64_t>(
        args.getInt("batch-deadline-us"));
    scfg.reloadPollMs = static_cast<std::uint64_t>(
        args.getInt("reload-poll-ms"));
    if (!serve::pollerKindFromString(args.get("poller"),
                                     scfg.poller)) {
        fatal("--poller '%s' is not 'auto', 'epoll' or 'poll'",
              args.get("poller").c_str());
    }

    serve::Server server(policy, scfg);
    server.setReloadHook(
        [&reloader](bool forced) {
            return reloader.maybeReload(forced);
        });
    if (!server.start())
        fatal("cannot listen on port %ld", args.getInt("port"));

    g_server = &server;
    serve::installSighupReload(&server);
    std::signal(SIGINT, onTerminate);
    std::signal(SIGTERM, onTerminate);

    // Metrics endpoint on its own listener + thread: scrapes read a
    // registry snapshot, so they never touch the serving event loop.
    std::unique_ptr<serve::MetricsHttp> metrics;
    const long metricsPort = args.getInt("metrics-port");
    if (metricsPort >= 0) {
        serve::MetricsHttpConfig mcfg;
        mcfg.port = static_cast<std::uint16_t>(metricsPort);
        mcfg.poller = scfg.poller;
        metrics = std::make_unique<serve::MetricsHttp>(mcfg);
        if (!metrics->start())
            fatal("cannot listen on metrics port %ld", metricsPort);
        metrics->startThread();
        std::printf("metrics on port %u (GET /metrics, /healthz)\n",
                    static_cast<unsigned>(metrics->port()));
        std::fflush(stdout);
        if (!args.get("metrics-port-file").empty()) {
            std::FILE *f = std::fopen(
                args.get("metrics-port-file").c_str(), "w");
            if (f == nullptr)
                fatal("cannot write --metrics-port-file '%s'",
                      args.get("metrics-port-file").c_str());
            std::fprintf(f, "%u\n",
                         static_cast<unsigned>(metrics->port()));
            std::fclose(f);
        }
    }

    std::printf("listening on port %u (%s backend, batch-max %zu, "
                "deadline %llu us)\n",
                static_cast<unsigned>(server.port()),
                server.backendName(), scfg.batchMax,
                static_cast<unsigned long long>(
                    scfg.batchDeadlineUs));
    std::fflush(stdout);
    if (!args.get("port-file").empty()) {
        std::FILE *f =
            std::fopen(args.get("port-file").c_str(), "w");
        if (f == nullptr)
            fatal("cannot write --port-file '%s'",
                  args.get("port-file").c_str());
        std::fprintf(f, "%u\n",
                     static_cast<unsigned>(server.port()));
        std::fclose(f);
    }

    server.run();

    if (metrics)
        metrics->stop();
    serve::installSighupReload(nullptr);
    g_server = nullptr;

    const serve::ServeStats stats = server.stats();
    std::printf("served %llu response(s) over %llu connection(s), "
                "%llu batch(es), %llu reload(s), %llu protocol "
                "error(s)\n",
                static_cast<unsigned long long>(stats.responses),
                static_cast<unsigned long long>(stats.accepted),
                static_cast<unsigned long long>(stats.batches),
                static_cast<unsigned long long>(stats.reloads),
                static_cast<unsigned long long>(
                    stats.protocolErrors));
    return 0;
}

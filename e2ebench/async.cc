/**
 * @file
 * async-cn3-a2: async::AsyncTrainLoop on cooperative navigation with
 * 3 agents: 2 actor threads with one environment lane each feed one
 * learner (pool of 1 thread, batch 256, an update every 50 drained
 * transitions, replay capacity 65536, rings of 4096). The actors
 * outrun the learner, so most generated transitions are dropped at
 * the rings by design; this is the workload for the rings, the drain,
 * the learner and the write-heavy appendRecord replay path.
 *
 * The window is a sequence of AsyncTrainLoop::run calls of a fixed
 * episode count on one loop (replay and learner weights carry over),
 * each a segment whose rates feed the medians.
 */

#include <array>
#include <cmath>
#include <memory>

#include "marlin/async/async_train_loop.hh"
#include "marlin/base/thread_pool.hh"
#include "marlin/env/environment.hh"
#include "timed.hh"
#include "workloads.hh"

namespace e2e
{

namespace
{

using namespace marlin;

constexpr std::size_t kAgents = 3;
/** Two actors: Window::advance below lists their probes. */
constexpr std::size_t kActors = 2;
constexpr std::size_t kActDim = 5;

core::TrainConfig
asyncConfig(const Options &opt)
{
    core::TrainConfig config;
    config.batchSize = 256;
    config.updateEvery = 50;
    config.bufferCapacity = opt.smoke ? 8192 : 65536;
    config.seed = opt.seed;
    return config;
}

/** Episodes per run() segment: ~0.5 s of actor time on 4 cores. */
std::size_t
segmentEpisodes(const Options &opt)
{
    return opt.smoke ? 1000 : 12000;
}

/** Learner, loop and the actor clones' probes, warmed past replay
 *  warm-up so every measured segment updates from its start. */
struct Rig
{
    Rig(const Options &opt, Probes &learner_probes,
        std::array<Probes, kActors> &actor_probes)
    {
        const core::TrainConfig config = asyncConfig(opt);
        std::vector<std::size_t> dims;
        {
            const auto probe_env =
                env::makeCooperativeNavigationEnv(kAgents, opt.seed);
            for (std::size_t i = 0; i < kAgents; ++i)
                dims.push_back(probe_env->obsDim(i));
        }
        learner = std::make_unique<TimedMaddpg>(dims, kActDim, config,
                                                learner_probes);
        async::AsyncConfig acfg;
        acfg.actors = kActors;
        acfg.lanesPerActor = 1;
        acfg.ringCapacity = 4096;
        // run() builds actor clones in actor order, so clone k of a
        // segment is actor k % kActors.
        loop = std::make_unique<async::AsyncTrainLoop>(
            *learner,
            [](std::uint64_t seed) {
                return env::makeCooperativeNavigationEnv(kAgents, seed);
            },
            [this, dims, config, &actor_probes](std::uint64_t seed) {
                core::TrainConfig actor_config = config;
                actor_config.seed = seed;
                return std::make_unique<TimedMaddpg>(
                    dims, kActDim, actor_config,
                    actor_probes[clones++ % kActors]);
            },
            config, acfg);
        loop->run(opt.smoke ? 200 : 2000);
    }

    std::unique_ptr<TimedMaddpg> learner;
    std::unique_ptr<async::AsyncTrainLoop> loop;
    std::size_t clones = 0;
};

} // namespace

Report
runAsync(const Options &opt)
{
    Report rep("async-cn3-a2");
    base::ThreadPool::setGlobalThreads(1);
    rep.config("pool_threads", 1);
    rep.config("actors", kActors);
    rep.config("agents", kAgents);
    rep.config("buffer_capacity",
               static_cast<double>(asyncConfig(opt).bufferCapacity));
    rep.config("segment_episodes",
               static_cast<double>(segmentEpisodes(opt)));

    Probes learner_probes;
    std::array<Probes, kActors> actor_probes;
    std::unique_ptr<Rig> rig;
    rep.metric("setup_s", timeSetups(5, [&] {
                   rig.reset();
                   rig = std::make_unique<Rig>(opt, learner_probes,
                                               actor_probes);
               }),
               "s", 5);

    PerPart<std::vector<double>> rates;
    PerPart<double> walls{};
    PerPart<double> updates{};
    // Ring-side rates of the Timed part.
    std::vector<double> env_rates;
    std::vector<double> stored_rates;
    double generated = 0;
    double drained = 0;
    double refreshes = 0;
    std::uint64_t conservation_errors = 0;
    std::uint64_t incomplete = 0;
    std::uint64_t lost = 0;
    std::uint64_t supervisor_events = 0;
    bool finite = true;
    std::vector<double> cycle_us;
    std::vector<std::uint64_t> done;
    done.reserve(1 << 16);
    learner_probes.updateDone = &done;
    Window window(opt);
    while (window.open()) {
        window.advance(
            {&learner_probes, &actor_probes[0], &actor_probes[1]});
        done.clear();
        const std::uint64_t t0 = nowNs();
        const async::AsyncTrainResult r =
            rig->loop->run(segmentEpisodes(opt));
        const double wall = seconds(nowNs() - t0);
        for (std::size_t i = 1; i < done.size(); ++i)
            cycle_us.push_back(
                static_cast<double>(done[i] - done[i - 1]) * 1e-3);
        const std::size_t part = idx(window.part());
        rates[part].push_back(static_cast<double>(r.updateCalls) / wall);
        walls[part] += wall;
        updates[part] += static_cast<double>(r.updateCalls);
        if (window.part() == Part::Timed) {
            generated += static_cast<double>(r.envSteps);
            drained += static_cast<double>(r.drainedSteps);
            refreshes += static_cast<double>(r.weightRefreshes);
            env_rates.push_back(static_cast<double>(r.envSteps) / wall);
            stored_rates.push_back(static_cast<double>(r.drainedSteps) /
                                   wall);
        }
        rep.attempted += r.updateCalls;

        // Ring conservation: every generated transition was pushed or
        // dropped, and every pushed one drained, quarantined or left.
        if (r.envSteps != r.ringPushed + r.ringDropped ||
            r.ringPushed !=
                r.drainedSteps + r.quarantined + r.ringResidual)
            ++conservation_errors;
        if (r.episodeRewards.size() != segmentEpisodes(opt))
            ++incomplete;
        for (Real reward : r.episodeRewards)
            finite = finite && std::isfinite(reward);
        lost += r.nonFiniteUpdates + r.quarantined +
                (r.learnerFailed ? 1 : 0) + (r.halted ? 1 : 0);
        supervisor_events +=
            r.restarts + r.degradations + r.watchdogTrips;
    }
    learner_probes.updateDone = nullptr;
    window.close();

    const std::vector<double> all = allParts(rates);
    rep.metric("throughput", median(all), "1/s", all.size());
    rep.metric("latency_p50", quantile(cycle_us, 0.50), "us",
               cycle_us.size());
    rep.metric("latency_p95", quantile(cycle_us, 0.95), "us",
               cycle_us.size());
    rep.config("supervisor_events",
               static_cast<double>(supervisor_events));

    rep.check("ring_conservation", conservation_errors == 0,
              std::to_string(conservation_errors) +
                  " segments broke generated = pushed + dropped or "
                  "pushed = drained + quarantined + residual",
              conservation_errors);
    rep.check("segments_complete", incomplete == 0,
              std::to_string(incomplete) +
                  " segments missed episodes",
              incomplete);
    rep.check("rewards_finite", finite);
    rep.check("no_lost_updates", lost == 0,
              std::to_string(lost) +
                  " non-finite updates, quarantined records or "
                  "learner failures",
              lost);

    if (opt.traced) {
        const double wall =
            walls[idx(Part::Timed)] > 0 ? walls[idx(Part::Timed)] : 1;
        reportProbeLayers(rep, learner_probes, wall,
                          rig->loop->buffer().storageBytes());
        double select = 0;
        for (const Probes &p : actor_probes)
            select += p.select.s();
        rep.layer("core.select_share", select / (kActors * wall),
                  "share");
        rep.layer("unattributed_share",
                  1 - learner_probes.update.s() / wall, "share");
        reportWindowLayers(rep, window, updates,
                           learner_probes.gather.s(),
                           overheadShare(rates));
        rep.layer("async.env_steps_per_s", median(env_rates), "1/s");
        rep.layer("async.stored_steps_per_s", median(stored_rates),
                  "1/s");
        rep.layer("async.ring.useful_ratio",
                  generated > 0 ? drained / generated : 0, "ratio");
        rep.layer("async.weight_refreshes_per_s", refreshes / wall,
                  "1/s");
        double staleness = 0;
        for (const auto &s : obs::Registry::instance().snapshot())
            if (s.name == "async.policy.staleness")
                staleness = s.value;
        rep.layer("async.policy.staleness", staleness, "count");
        finishTracing(opt, rep);
    }
    return rep;
}

} // namespace e2e

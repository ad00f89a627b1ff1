/**
 * @file
 * lockstep-cn3: core::TrainLoop::run with MADDPG on cooperative
 * navigation, 3 agents, the paper's hyper-parameters (batch 1024, an
 * update every 100 env steps, 25-step episodes) and a 1-thread pool.
 * The NN update is ~97% of wall time and replay ~1-2%, so this is the
 * workload a kernel or GEMM change moves and the one a replay change
 * is predicted to leave alone. Its latency is that of an update
 * period: 100 env steps of acting, stepping and inserting plus the
 * one update they trigger.
 */

#include <cmath>
#include <cstring>
#include <memory>

#include "marlin/base/thread_pool.hh"
#include "marlin/core/train_loop.hh"
#include "marlin/env/environment.hh"
#include "timed.hh"
#include "workloads.hh"

namespace e2e
{

namespace
{

using namespace marlin;

constexpr std::size_t kAgents = 3;
/**
 * One pool thread: with three, pool wake-ups on this class of shared
 * VM made whole runs drift by ~17% while single-threaded workloads
 * held steady, more than a regression bound could absorb.
 */
constexpr std::size_t kPoolThreads = 1;
/** Episodes per update period (100 env steps, one update). */
constexpr std::size_t kPeriodEpisodes = 4;
/** A chunk is 5 update periods. */
constexpr std::size_t kChunkEpisodes = 5 * kPeriodEpisodes;
/** 1200 env steps: past the first update (at 1024) and one more. */
constexpr std::size_t kWarmEpisodes = 48;
/** Episodes the traced run re-trains untraced to compare rewards. */
constexpr std::size_t kReferenceEpisodes = 120;

core::TrainConfig
lockstepConfig(const Options &opt)
{
    core::TrainConfig config; // Paper defaults (core/config.hh).
    // A 20 s run stores well under 2^17 transitions, so the ring never
    // wraps and behaves exactly like the paper's 1e6 while allocating
    // 8x less; smoke runs shrink it further.
    config.bufferCapacity = opt.smoke ? 1 << 13 : 1 << 17;
    config.seed = opt.seed;
    return config;
}

/** Environment + timed trainer + loop, warmed past the first update. */
struct Rig
{
    Rig(const Options &opt, Probes &probes)
        : environment(env::makeCooperativeNavigationEnv(kAgents,
                                                        opt.seed))
    {
        const core::TrainConfig config = lockstepConfig(opt);
        std::vector<std::size_t> dims;
        for (std::size_t i = 0; i < environment->numAgents(); ++i)
            dims.push_back(environment->obsDim(i));
        trainer = std::make_unique<TimedMaddpg>(
            dims, environment->actionDim(), config, probes);
        loop = std::make_unique<core::TrainLoop>(*environment,
                                                 *trainer, config);
        train(kWarmEpisodes, nullptr);
    }

    void
    train(std::size_t episodes, const core::EpisodeCallback &callback)
    {
        target += episodes;
        last = loop->run(target, callback);
        nonFinite += last.nonFiniteUpdates;
    }

    std::unique_ptr<env::Environment> environment;
    std::unique_ptr<TimedMaddpg> trainer;
    std::unique_ptr<core::TrainLoop> loop;
    std::size_t target = 0;
    std::size_t nonFinite = 0;
    core::TrainResult last;
};

/** 52-bit digest of the first @p n rewards (exact as a double). */
double
rewardDigest(const std::vector<Real> &rewards, std::size_t n)
{
    std::uint64_t h = 0;
    for (std::size_t i = 0; i < n && i < rewards.size(); ++i) {
        std::uint32_t bits = 0;
        std::memcpy(&bits, &rewards[i], sizeof(bits));
        h = mix64(h ^ bits);
    }
    return static_cast<double>(h >> 12);
}

} // namespace

Report
runLockstep(const Options &opt)
{
    Report rep("lockstep-cn3");
    base::ThreadPool::setGlobalThreads(kPoolThreads);
    rep.config("pool_threads", kPoolThreads);
    rep.config("agents", kAgents);
    rep.config("buffer_capacity",
               static_cast<double>(lockstepConfig(opt).bufferCapacity));

    Probes probes;
    std::unique_ptr<Rig> rig;
    rep.metric("setup_s", timeSetups(5, [&] {
                   rig.reset();
                   rig = std::make_unique<Rig>(opt, probes);
               }),
               "s", 5);

    const std::size_t steps_per_chunk =
        kChunkEpisodes * lockstepConfig(opt).maxEpisodeLength;
    PerPart<std::vector<double>> rates;
    PerPart<double> walls{};
    PerPart<double> steps{};
    std::vector<double> period_us;
    Window window(opt);
    while (window.open()) {
        window.advance({&probes});
        const std::uint64_t t0 = nowNs();
        std::uint64_t period_start = t0;
        std::size_t episodes = 0;
        rig->train(kChunkEpisodes, [&](const core::EpisodeInfo &) {
            if (++episodes % kPeriodEpisodes != 0)
                return;
            const std::uint64_t t = nowNs();
            period_us.push_back(static_cast<double>(t - period_start) *
                                1e-3);
            period_start = t;
        });
        const double wall = seconds(nowNs() - t0);
        const std::size_t part = idx(window.part());
        rates[part].push_back(static_cast<double>(steps_per_chunk) / wall);
        walls[part] += wall;
        steps[part] += static_cast<double>(steps_per_chunk);
        rep.attempted += steps_per_chunk;
    }
    window.close();

    const std::vector<double> all = allParts(rates);
    rep.metric("throughput", median(all), "1/s", all.size());
    rep.metric("latency_p50", quantile(period_us, 0.50), "us",
               period_us.size());
    rep.metric("latency_p95", quantile(period_us, 0.95), "us",
               period_us.size());

    const std::vector<Real> &rewards = rig->last.episodeRewards;
    bool finite = true;
    for (Real r : rewards)
        finite = finite && std::isfinite(r);
    rep.check("rewards_finite", finite,
              std::to_string(rewards.size()) + " episodes");
    rep.check("no_nonfinite_updates", rig->nonFinite == 0,
              std::to_string(rig->nonFinite) + " non-finite updates",
              rig->nonFinite);
    rep.config("reward_digest",
               rewardDigest(rewards, kReferenceEpisodes));

    if (opt.traced) {
        const double wall =
            walls[idx(Part::Timed)] > 0 ? walls[idx(Part::Timed)] : 1;
        reportProbeLayers(rep, probes, wall,
                          rig->loop->replayStore().storageBytes());
        rep.layer("core.select_share", probes.select.s() / wall,
                  "share");
        rep.layer("unattributed_share",
                  1 - (probes.select.s() + probes.update.s()) / wall,
                  "share");
        reportWindowLayers(rep, window, steps, probes.gather.s(),
                           overheadShare(rates));
        finishTracing(opt, rep);

        // Instrumentation must be a pure observer: retrain the first
        // episodes with probes off and compare rewards bit for bit.
        Probes off;
        Rig reference(opt, off);
        const std::size_t n =
            std::min(kReferenceEpisodes, rewards.size());
        if (n > kWarmEpisodes)
            reference.train(n - kWarmEpisodes, nullptr);
        const auto &want = reference.last.episodeRewards;
        const bool same =
            want.size() >= n &&
            std::memcmp(want.data(), rewards.data(),
                        n * sizeof(Real)) == 0;
        rep.check("traced_rewards_bit_identical", same,
                  std::to_string(n) + " episodes vs an untraced rerun");
    }
    return rep;
}

} // namespace e2e

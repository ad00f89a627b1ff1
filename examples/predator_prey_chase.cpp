/**
 * @file
 * Competitive scenario walkthrough: train MADDPG predators against
 * scripted prey, comparing the baseline uniform sampler with the
 * paper's cache locality-aware sampler side by side — same seeds,
 * same environment — and then render a short greedy chase as ASCII
 * frames so the learned behaviour is visible.
 *
 *   ./predator_prey_chase [episodes]
 */

#include <cstdio>
#include <cstdlib>
#include <utility>

#include "marlin/marlin.hh"

using namespace marlin;

namespace
{

struct RunOutcome
{
    Real finalScore = 0;
    double samplingSeconds = 0;
    double totalSeconds = 0;
};

RunOutcome
trainOnce(std::size_t episodes, core::SamplerFactory factory,
          const char *label)
{
    auto environment = env::makePredatorPreyEnv(3, 11);
    core::TrainConfig config;
    config.batchSize = 128;
    config.bufferCapacity = 1 << 15;
    config.warmupTransitions = 256;
    config.updateEvery = 50;
    config.epsilonDecayEpisodes = episodes / 2;
    config.seed = 11;

    std::vector<std::size_t> dims;
    for (std::size_t i = 0; i < environment->numAgents(); ++i)
        dims.push_back(environment->obsDim(i));
    core::MaddpgTrainer trainer(dims, environment->actionDim(),
                                config, std::move(factory));
    core::TrainLoop loop(*environment, trainer, config);
    std::printf("training %s...\n", label);
    auto result = loop.run(episodes);

    RunOutcome outcome;
    outcome.finalScore = result.finalScore;
    outcome.samplingSeconds =
        result.timer.seconds(profile::Phase::Sampling);
    outcome.totalSeconds = result.timer.totalSeconds();
    return outcome;
}

/** Render one world state as a small ASCII grid. */
void
renderFrame(const env::World &world, int step)
{
    constexpr int size = 21; // [-1, 1] mapped onto a 21x21 grid.
    char grid[size][size];
    for (auto &row : grid)
        for (char &c : row)
            c = '.';
    auto plot = [&](env::Vec2 pos, char c) {
        int gx = static_cast<int>((pos.x + 1) / 2 * (size - 1));
        int gy = static_cast<int>((pos.y + 1) / 2 * (size - 1));
        gx = std::clamp(gx, 0, size - 1);
        gy = std::clamp(gy, 0, size - 1);
        grid[size - 1 - gy][gx] = c;
    };
    for (const auto &lm : world.landmarks)
        plot(lm.pos, '#');
    for (std::size_t i = 0; i < world.agents.size(); ++i) {
        plot(world.agents[i].pos,
             world.agents[i].adversary
                 ? static_cast<char>('1' + i)
                 : 'P');
    }
    std::printf("step %d\n", step);
    for (auto &row : grid) {
        std::fwrite(row, 1, size, stdout);
        std::printf("\n");
    }
}

} // namespace

int
main(int argc, char **argv)
{
    const std::size_t episodes =
        argc > 1 ? std::strtoul(argv[1], nullptr, 10) : 1200;

    // --- 1. Baseline vs cache-aware training, same seeds ---------
    auto baseline = trainOnce(
        episodes,
        [] { return std::make_unique<replay::UniformSampler>(); },
        "baseline MADDPG (uniform sampling)");
    auto cache_aware = trainOnce(
        episodes,
        [] {
            return std::make_unique<replay::LocalityAwareSampler>(
                replay::LocalityConfig{16, 8});
        },
        "cache-aware MADDPG (16 neighbors)");

    std::printf("\n%-26s %14s %16s %12s\n", "variant", "final score",
                "sampling (s)", "total (s)");
    std::printf("%-26s %14.2f %16.3f %12.2f\n", "baseline",
                baseline.finalScore, baseline.samplingSeconds,
                baseline.totalSeconds);
    std::printf("%-26s %14.2f %16.3f %12.2f\n", "cache-aware",
                cache_aware.finalScore, cache_aware.samplingSeconds,
                cache_aware.totalSeconds);

    // --- 2. Watch a short greedy chase --------------------------
    std::printf("\nreplaying a greedy episode (predators 1-3 chase "
                "prey P, # are obstacles)\n\n");
    auto environment = env::makePredatorPreyEnv(3, 11);
    core::TrainConfig config;
    config.seed = 11;
    std::vector<std::size_t> dims;
    for (std::size_t i = 0; i < environment->numAgents(); ++i)
        dims.push_back(environment->obsDim(i));
    core::MaddpgTrainer trainer(
        dims, environment->actionDim(), config,
        [] { return std::make_unique<replay::UniformSampler>(); });

    std::vector<std::vector<Real>> obs;
    environment->resetInto(obs);
    env::StepResult result;
    for (int step = 0; step < 6; ++step) {
        renderFrame(environment->world(), step);
        environment->stepInto(trainer.greedyActions(obs), result);
        std::swap(obs, result.observations);
    }
    return 0;
}

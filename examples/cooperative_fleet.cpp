/**
 * @file
 * Cooperative fleet example: MATD3 with information-prioritized
 * locality-aware sampling on cooperative navigation — the paper's
 * full optimization stack on its cooperative workload, including
 * the record-major data-layout backend.
 *
 *   ./cooperative_fleet [agents] [episodes]
 */

#include <cstdio>
#include <cstdlib>

#include "marlin/marlin.hh"

using namespace marlin;

int
main(int argc, char **argv)
{
    const std::size_t agents =
        argc > 1 ? std::strtoul(argv[1], nullptr, 10) : 6;
    const std::size_t episodes =
        argc > 2 ? std::strtoul(argv[2], nullptr, 10) : 800;

    auto environment =
        env::makeCooperativeNavigationEnv(agents, 31);

    core::TrainConfig config;
    config.batchSize = 128;
    config.bufferCapacity = 1 << 15;
    config.warmupTransitions = 256;
    config.updateEvery = 100;
    config.epsilonDecayEpisodes = episodes / 2;
    config.policyDelay = 2;
    // Sample from the reorganized record-major layout (Section IV-B2):
    // one all-hot shard of joint records.
    config.backend = core::SamplingBackend::Sharded;
    config.seed = 31;

    std::vector<std::size_t> dims;
    for (std::size_t i = 0; i < environment->numAgents(); ++i)
        dims.push_back(environment->obsDim(i));

    // Information-prioritized locality-aware sampling: PER picks
    // the references, the predictor sizes the neighbor runs.
    const BufferIndex capacity = config.bufferCapacity;
    core::Matd3Trainer trainer(
        dims, environment->actionDim(), config, [capacity] {
            replay::PerConfig per;
            per.capacity = capacity;
            per.betaAnneal = Real(1e-5);
            return std::make_unique<
                replay::InfoPrioritizedLocalitySampler>(per);
        });

    core::TrainLoop loop(*environment, trainer, config);
    std::printf("MATD3 + IP-locality sampling + record-major layout, "
                "%zu agents, %zu episodes\n",
                agents, episodes);
    const std::size_t report_every =
        std::max<std::size_t>(1, episodes / 8);
    double window = 0;
    auto result =
        loop.run(episodes, [&](const core::EpisodeInfo &e) {
            window += e.meanReward;
            if ((e.episode + 1) % report_every == 0) {
                std::printf("  episode %5zu  mean reward %8.2f\n",
                            e.episode + 1, window / report_every);
                window = 0;
            }
        });

    std::printf("\nfinal score: %.2f over %llu updates\n",
                result.finalScore,
                static_cast<unsigned long long>(result.updateCalls));
    std::printf("%s\n",
                profile::formatUpdate(
                    profile::updateBreakdown(result.timer))
                    .c_str());
    const replay::ReplayStore &store = loop.replayStore();
    std::printf("%s store holds %llu transitions (%s)\n",
                store.backendName(),
                static_cast<unsigned long long>(store.size()),
                formatBytes(store.storageBytes()).c_str());
    return 0;
}

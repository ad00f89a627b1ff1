/**
 * @file
 * Figure 14: mini-batch sampling-phase change from transition data
 * layout reorganization (Section IV-B2), MADDPG, PP and CN, 3-24
 * agents — including the data-reshaping cost — plus the
 * "inter-agent sampling only" speedups the paper quotes
 * (1.36x-9.55x PP, 1.18x-7.03x CN for 3-24 agents).
 *
 * Accounting matches the paper's: the reorganized path must pay,
 * per update, for reshaping the sampled transition window into the
 * key-value record layout before the N trainers gather from it;
 * the baseline path is the per-agent O(N^2 B) gather.
 *
 * Paper reference (sampling-phase change, reshaping included):
 *   PP: -63.8% / -19.7% / +4.8% / +25.8% for 3/6/12/24 agents
 *   CN: -37.1% / -10.35% / +9.3% / +15.23%
 */

#include <cstring>

#include "common.hh"

namespace
{

using namespace marlin;
using namespace marlin::bench;

/** Baseline: per trainer, gather the plan from all N buffers. */
double
baselineSeconds(const replay::MultiAgentBuffer &buffers,
                replay::Sampler &sampler, int reps)
{
    Rng rng(3);
    std::vector<replay::AgentBatch> batches;
    for (std::size_t t = 0; t < buffers.numAgents(); ++t) {
        auto plan = sampler.plan(buffers.size(), 1024, rng);
        replay::gatherAllAgents(buffers, plan, batches);
    }
    profile::Stopwatch sw;
    for (int rep = 0; rep < reps; ++rep) {
        for (std::size_t t = 0; t < buffers.numAgents(); ++t) {
            auto plan = sampler.plan(buffers.size(), 1024, rng);
            replay::gatherAllAgents(buffers, plan, batches);
        }
    }
    return sw.elapsedSeconds() / reps;
}

/**
 * Reorganized path (Section IV-B2): the replay data lives in the
 * record-major store — one all-hot ShardedStore shard — maintained
 * by appending each new joint transition (the per-update reshaping
 * cost: updateEvery records); each trainer then gathers its
 * mini-batch with a single O(B) loop whose every lookup reads one
 * contiguous record instead of 3N scattered rows.
 */
struct ReorgTimes
{
    double reshape = 0; ///< Record maintenance per update.
    double gather = 0;  ///< N trainers' O(B) gathers per update.
};

ReorgTimes
reorgSeconds(const replay::MultiAgentBuffer &buffers,
             replay::ShardedStore &store,
             replay::Sampler &sampler, int reps,
             std::size_t update_every = 100)
{
    const std::size_t n = buffers.numAgents();
    std::vector<replay::TransitionShape> shapes;
    for (std::size_t a = 0; a < n; ++a)
        shapes.push_back(buffers.agent(a).shape());

    Rng rng(3);
    ReorgTimes times;
    std::vector<replay::AgentBatch> batches;

    // Reshaping cost: the interleaving work for the update_every
    // transitions inserted between two updates.
    {
        std::vector<std::vector<Real>> obs(n), act(n), next(n);
        std::vector<Real> rew(n);
        std::vector<bool> done(n, false);
        for (std::size_t a = 0; a < n; ++a) {
            obs[a].assign(shapes[a].obsDim, Real(0.5));
            next[a].assign(shapes[a].obsDim, Real(0.25));
            act[a].assign(shapes[a].actDim, Real(0));
            act[a][0] = Real(1);
        }
        profile::Stopwatch sw;
        for (int rep = 0; rep < reps; ++rep)
            for (std::size_t k = 0; k < update_every; ++k)
                store.append(obs, act, rew, next, done);
        times.reshape = sw.elapsedSeconds() / reps;
    }

    // Gathers: one plan per trainer, O(B) record reads each.
    for (std::size_t t = 0; t < n; ++t) { // Warm-up pass.
        auto plan = sampler.plan(store.size(), 1024, rng);
        store.gatherAll(plan, batches);
    }
    profile::Stopwatch sw;
    for (int rep = 0; rep < reps; ++rep) {
        for (std::size_t t = 0; t < n; ++t) {
            auto plan = sampler.plan(store.size(), 1024, rng);
            store.gatherAll(plan, batches);
        }
    }
    times.gather = sw.elapsedSeconds() / reps;
    return times;
}

void
runTask(Task task)
{
    std::printf("\nMADDPG / %s\n", taskName(task));
    std::printf("%-8s %12s %12s %12s %14s %16s\n", "agents",
                "base(ms)", "reshape(ms)", "gather(ms)",
                "change(%)", "gather-only(x)");
    for (std::size_t n : {3, 6, 12, 24}) {
        auto shapes = taskShapes(task, n);
        // Both layouts live side by side, so split the budget.
        const BufferIndex capacity =
            scaledCapacity(shapes, 320ull << 20);
        replay::MultiAgentBuffer buffers(shapes, capacity);
        replay::ShardedStore store(shapes, capacity, {});
        Rng fill_rng(n);
        fillSynthetic(buffers, capacity, fill_rng, &store);

        replay::UniformSampler sampler;
        const int reps = n >= 12 ? 2 : 4;
        const double base = baselineSeconds(buffers, sampler, reps);
        const auto reorg = reorgSeconds(buffers, store, sampler,
                                        reps);
        const double total = reorg.reshape + reorg.gather;

        std::printf("%-8zu %12.2f %12.2f %12.2f %+14.1f %15.2fx\n",
                    n, base * 1e3, reorg.reshape * 1e3,
                    reorg.gather * 1e3, pctReduction(base, total),
                    base / reorg.gather);
    }
}

} // namespace

int
main(int argc, char **argv)
{
    initThreads(argc, argv);
    initIsa(argc, argv);
    initLogLevel(argc, argv);
    ObsSession obs(argc, argv, "bench_fig14_layout_reorg");
    banner("Figure 14: transition data layout reorganization");
    runTask(Task::PredatorPrey);
    runTask(Task::CooperativeNavigation);
    std::printf(
        "\nchange(%%) charges the per-update reshaping cost "
        "(negative = slowdown);\ngather-only(x) is the inter-agent "
        "sampling speedup excluding reshaping.\npaper shape: "
        "slowdown at 3-6 agents turning into a speedup by 12-24\n"
        "(PP: -63.8%% -> +25.8%%); gather-only speedup rises "
        "1.36x -> 9.55x (PP).\n");
    return 0;
}

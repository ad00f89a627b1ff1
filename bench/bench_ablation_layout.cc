/**
 * @file
 * Ablation (DESIGN.md decision 1): per-agent SoA arrays vs the
 * record-major all-agents store (one all-hot ShardedStore shard),
 * under uniform and locality-aware index plans. Shows why the
 * baseline SoA layout is a faithful stand-in for the reference NumPy
 * buffers and how much of the Figure 14 effect is pure layout.
 */

#include "common.hh"

namespace
{

using namespace marlin;
using namespace marlin::bench;

struct Layouts
{
    std::unique_ptr<replay::MultiAgentBuffer> soa;
    std::unique_ptr<replay::ShardedStore> records;
};

Layouts
buildLayouts(Task task, std::size_t agents, BufferIndex capacity)
{
    Layouts l;
    auto shapes = taskShapes(task, agents);
    l.soa =
        std::make_unique<replay::MultiAgentBuffer>(shapes, capacity);
    l.records = std::make_unique<replay::ShardedStore>(
        shapes, capacity, replay::ShardedStoreConfig{});

    Rng rng(agents);
    std::vector<std::vector<Real>> obs(agents), act(agents),
        next(agents);
    std::vector<Real> rew(agents);
    std::vector<bool> done(agents, false);
    for (std::size_t a = 0; a < agents; ++a) {
        obs[a].resize(shapes[a].obsDim);
        next[a].resize(shapes[a].obsDim);
        act[a].assign(shapes[a].actDim, Real(0));
    }
    for (BufferIndex t = 0; t < capacity; ++t) {
        for (std::size_t a = 0; a < agents; ++a) {
            for (auto &v : obs[a])
                v = rng.uniformf();
            next[a] = obs[a];
            rew[a] = rng.uniformf();
        }
        l.soa->append(obs, act, rew, next, done);
        l.records->append(obs, act, rew, next, done);
    }
    return l;
}

/** Seconds per update (N trainers x N-agent gathers). */
double
timeGather(std::size_t agents, replay::Sampler &sampler,
           const replay::ReplayStore &store, int reps)
{
    Rng rng(7);
    std::vector<replay::AgentBatch> batches;
    const BufferIndex size = store.size();
    for (std::size_t t = 0; t < agents; ++t) // Warm-up.
        store.gatherAll(sampler.plan(size, 1024, rng), batches);
    profile::Stopwatch sw;
    for (int rep = 0; rep < reps; ++rep)
        for (std::size_t t = 0; t < agents; ++t)
            store.gatherAll(sampler.plan(size, 1024, rng), batches);
    return sw.elapsedSeconds() / reps;
}

void
run(Task task, replay::Sampler &sampler, const char *plan_name)
{
    std::printf("\n%s, %s index plans\n", taskName(task), plan_name);
    std::printf("%-8s %12s %16s\n", "agents", "soa(ms)",
                "record-major(ms)");
    for (std::size_t n : {3, 6, 12}) {
        const BufferIndex capacity = scaledCapacity(
            taskShapes(task, n), 256ull << 20);
        auto layouts = buildLayouts(task, n, capacity);
        const int reps = n >= 12 ? 2 : 4;

        const double soa = timeGather(n, sampler, *layouts.soa, reps);
        const double records =
            timeGather(n, sampler, *layouts.records, reps);
        std::printf("%-8zu %12.2f %16.2f\n", n, soa * 1e3,
                    records * 1e3);
    }
}

} // namespace

int
main(int argc, char **argv)
{
    initThreads(argc, argv);
    initIsa(argc, argv);
    initLogLevel(argc, argv);
    ObsSession obs(argc, argv, "bench_ablation_layout");
    banner("Ablation: replay storage layout (SoA vs record-major)");
    replay::UniformSampler uniform;
    run(Task::PredatorPrey, uniform, "uniform");
    replay::LocalityAwareSampler locality({16, 64});
    run(Task::PredatorPrey, locality, "locality n16");
    std::printf("\nexpectation: the record-major store wins once "
                "agents multiply the per-row\nseek count (one record "
                "read per index vs three reads per agent).\n");
    return 0;
}

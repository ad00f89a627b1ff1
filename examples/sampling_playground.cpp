/**
 * @file
 * Sampling-strategy playground: build a large replay buffer, run
 * every sampler the paper studies over it, and report wall-clock
 * gather time alongside the trace-driven cache-model counters —
 * the core experiment of the paper in ~100 lines of user code.
 *
 *   ./sampling_playground [agents] [log2_capacity]
 */

#include <cstdio>
#include <cstdlib>

#include "marlin/marlin.hh"

using namespace marlin;

namespace
{

void
report(const char *label, replay::Sampler &sampler,
       const replay::MultiAgentBuffer &buffers)
{
    Rng rng(101);
    std::vector<replay::AgentBatch> batches;
    const std::size_t batch = 1024;

    // Wall clock over a few full update-all-trainers gathers.
    const int reps = 3;
    for (std::size_t t = 0; t < buffers.numAgents(); ++t) {
        auto plan = sampler.plan(buffers.size(), batch, rng);
        replay::gatherAllAgents(buffers, plan, batches);
    }
    profile::Stopwatch sw;
    for (int rep = 0; rep < reps; ++rep) {
        for (std::size_t t = 0; t < buffers.numAgents(); ++t) {
            auto plan = sampler.plan(buffers.size(), batch, rng);
            replay::gatherAllAgents(buffers, plan, batches);
        }
    }
    const double ms = sw.elapsedSeconds() / reps * 1e3;

    // Simulated counters for one update's trace.
    replay::AccessTrace trace;
    for (std::size_t t = 0; t < buffers.numAgents(); ++t) {
        auto plan = sampler.plan(buffers.size(), batch, rng);
        replay::gatherAllAgents(buffers, plan, batches, &trace);
    }
    auto preset =
        memsim::makePlatform(memsim::PlatformId::Threadripper3975WX);
    memsim::CacheHierarchy hierarchy(preset.hierarchy);
    auto replayed =
        memsim::replayTrace(hierarchy, trace, preset.frequencyHz);

    std::printf("%-22s %10.2f %12llu %12llu %12llu\n", label, ms,
                static_cast<unsigned long long>(
                    replayed.stats.l1.misses),
                static_cast<unsigned long long>(
                    replayed.stats.l3.misses),
                static_cast<unsigned long long>(
                    replayed.stats.tlb.misses));
}

} // namespace

int
main(int argc, char **argv)
{
    const std::size_t agents =
        argc > 1 ? std::strtoul(argv[1], nullptr, 10) : 6;
    const std::size_t log2_cap =
        argc > 2 ? std::strtoul(argv[2], nullptr, 10) : 16;
    const BufferIndex capacity = BufferIndex{1} << log2_cap;

    // Predator-prey transition shapes for this agent count.
    env::PredatorPreyConfig pp;
    pp.numPredators = agents;
    env::PredatorPreyScenario scenario(pp);
    std::vector<replay::TransitionShape> shapes;
    for (std::size_t i = 0; i < agents; ++i)
        shapes.push_back({scenario.observationDim(i), 5});

    replay::MultiAgentBuffer buffers(shapes, capacity);
    std::printf("filling %zu-agent replay buffers, %llu entries "
                "(%s)...\n",
                agents, static_cast<unsigned long long>(capacity),
                formatBytes(buffers.storageBytes()).c_str());
    Rng rng(1);
    {
        // Synthetic fill — contents don't matter for the memory
        // behaviour, volume does.
        std::vector<std::vector<Real>> obs(agents), act(agents),
            next(agents);
        std::vector<Real> rew(agents);
        std::vector<bool> done(agents, false);
        for (std::size_t a = 0; a < agents; ++a) {
            obs[a].resize(shapes[a].obsDim);
            next[a].resize(shapes[a].obsDim);
            act[a].assign(5, Real(0));
        }
        for (BufferIndex t = 0; t < capacity; ++t) {
            for (std::size_t a = 0; a < agents; ++a) {
                for (auto &v : obs[a])
                    v = rng.uniformf();
                next[a] = obs[a];
                act[a][rng.randint(5)] = Real(1);
                rew[a] = rng.uniformf();
            }
            buffers.append(obs, act, rew, next, done);
        }
    }

    std::printf("\n%-22s %10s %12s %12s %12s\n", "sampler",
                "gather(ms)", "l1 misses", "llc misses",
                "dtlb misses");

    replay::UniformSampler uniform;
    report("uniform (baseline)", uniform, buffers);

    replay::LocalityAwareSampler n16({16, 64});
    report("locality n16 r64", n16, buffers);

    replay::LocalityAwareSampler n64({64, 16});
    report("locality n64 r16", n64, buffers);

    replay::PerConfig per_cfg;
    per_cfg.capacity = capacity;
    replay::PrioritizedSampler per(per_cfg);
    replay::InfoPrioritizedLocalitySampler ip(per_cfg);
    {
        // Seed both priority trees with a realistic TD spread.
        std::vector<BufferIndex> ids(capacity);
        std::vector<Real> tds(capacity);
        Rng prio(2);
        for (BufferIndex i = 0; i < capacity; ++i) {
            ids[i] = i;
            tds[i] = prio.uniformf();
        }
        per.updatePriorities(ids, tds);
        ip.updatePriorities(ids, tds);
    }
    report("per (proportional)", per, buffers);
    report("info-prioritized", ip, buffers);

    std::printf("\nlower misses <=> prefetcher-friendly index "
                "plans; this is the paper's\nFigure 7 mechanism "
                "made observable.\n");
    return 0;
}

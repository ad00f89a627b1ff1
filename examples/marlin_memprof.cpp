/**
 * @file
 * perf-style memory profiler for the sampling phase: pick a task,
 * agent count, sampler and platform, and get wall-clock plus the
 * trace-driven hierarchy counters — the tool-ified version of the
 * paper's characterization methodology.
 *
 *   ./marlin_memprof --task pp --agents 12 --sampler locality \
 *       --neighbors 64 --platform threadripper --updates 4
 */

#include <cstdio>

#include "marlin/base/args.hh"
#include "marlin/env/cooperative_navigation.hh"
#include "marlin/env/predator_prey.hh"
#include "marlin/marlin.hh"
#include "marlin/replay/rank_sampler.hh"

using namespace marlin;

namespace
{

std::vector<replay::TransitionShape>
shapesFor(const std::string &task, std::size_t agents)
{
    std::vector<replay::TransitionShape> shapes;
    if (task == "pp") {
        env::PredatorPreyConfig cfg;
        cfg.numPredators = agents;
        env::PredatorPreyScenario scenario(cfg);
        for (std::size_t i = 0; i < agents; ++i)
            shapes.push_back({scenario.observationDim(i), 5});
    } else if (task == "cn") {
        env::CooperativeNavigationConfig cfg;
        cfg.numAgents = agents;
        env::CooperativeNavigationScenario scenario(cfg);
        for (std::size_t i = 0; i < agents; ++i)
            shapes.push_back({scenario.observationDim(i), 5});
    } else {
        fatal("unknown task '%s' (pp or cn)", task.c_str());
    }
    return shapes;
}

std::unique_ptr<replay::Sampler>
makeSampler(const std::string &name, std::size_t neighbors,
            BufferIndex capacity, Rng &prio_rng)
{
    if (name == "uniform")
        return std::make_unique<replay::UniformSampler>();
    if (name == "locality") {
        return std::make_unique<replay::LocalityAwareSampler>(
            replay::LocalityConfig{neighbors, 0});
    }
    replay::PerConfig cfg;
    cfg.capacity = capacity;
    std::unique_ptr<replay::Sampler> sampler;
    if (name == "per") {
        sampler = std::make_unique<replay::PrioritizedSampler>(cfg);
    } else if (name == "per-rank") {
        sampler = std::make_unique<replay::RankBasedSampler>(cfg);
    } else if (name == "ip") {
        sampler = std::make_unique<
            replay::InfoPrioritizedLocalitySampler>(cfg);
    } else {
        fatal("unknown sampler '%s'", name.c_str());
    }
    // Seed priorities with a plausible TD spread.
    std::vector<BufferIndex> ids(capacity);
    std::vector<Real> tds(capacity);
    for (BufferIndex i = 0; i < capacity; ++i) {
        ids[i] = i;
        tds[i] = prio_rng.uniformf() + Real(0.01);
    }
    sampler->updatePriorities(ids, tds);
    return sampler;
}

} // namespace

int
main(int argc, char **argv)
{
    ArgParser args("marlin_memprof");
    args.addOption("task", "pp", "pp or cn");
    args.addOption("agents", "6", "trained agents");
    args.addOption("sampler", "uniform",
                   "uniform, locality, per, per-rank or ip");
    args.addOption("neighbors", "16", "locality run length");
    args.addOption("batch", "1024", "mini-batch size");
    args.addOption("log2-capacity", "16",
                   "replay entries = 2^this per agent");
    args.addOption("updates", "2", "updates to trace");
    args.addOption("platform", "threadripper",
                   "threadripper or i7-9700k");
    args.parse(argc, argv);

    const auto agents =
        static_cast<std::size_t>(args.getInt("agents"));
    const auto batch = static_cast<std::size_t>(args.getInt("batch"));
    const BufferIndex capacity =
        BufferIndex{1} << args.getInt("log2-capacity");
    const int updates = static_cast<int>(args.getInt("updates"));

    auto shapes = shapesFor(args.get("task"), agents);
    replay::MultiAgentBuffer buffers(shapes, capacity);
    std::printf("filling %zu x %llu-entry buffers (%s)...\n", agents,
                static_cast<unsigned long long>(capacity),
                formatBytes(buffers.storageBytes()).c_str());
    {
        Rng rng(1);
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
                rew[a] = rng.uniformf();
            }
            buffers.append(obs, act, rew, next, done);
        }
    }

    Rng prio_rng(2);
    auto sampler = makeSampler(
        args.get("sampler"),
        static_cast<std::size_t>(args.getInt("neighbors")), capacity,
        prio_rng);

    // Wall clock.
    Rng rng(3);
    std::vector<replay::AgentBatch> batches;
    for (std::size_t t = 0; t < agents; ++t) {
        auto plan = sampler->plan(buffers.size(), batch, rng);
        replay::gatherAllAgents(buffers, plan, batches);
    }
    profile::Stopwatch sw;
    for (int u = 0; u < updates; ++u) {
        for (std::size_t t = 0; t < agents; ++t) {
            auto plan = sampler->plan(buffers.size(), batch, rng);
            replay::gatherAllAgents(buffers, plan, batches);
        }
    }
    const double wall_ms = sw.elapsedSeconds() / updates * 1e3;

    // Simulated counters.
    replay::AccessTrace trace;
    for (int u = 0; u < updates; ++u) {
        for (std::size_t t = 0; t < agents; ++t) {
            auto plan = sampler->plan(buffers.size(), batch, rng);
            replay::gatherAllAgents(buffers, plan, batches, &trace);
        }
    }
    auto preset = memsim::makePlatform(
        memsim::platformFromString(args.get("platform")));
    memsim::CacheHierarchy hierarchy(preset.hierarchy);
    auto replayed =
        memsim::replayTrace(hierarchy, trace, preset.frequencyHz);
    const auto &s = replayed.stats;

    std::printf("\nsampler %s, %s, %zu agents, batch %zu, platform "
                "%s\n",
                sampler->name().c_str(), args.get("task").c_str(),
                agents, batch, preset.name.c_str());
    std::printf("%-28s %14.3f ms/update\n", "wall clock (this host)",
                wall_ms);
    std::printf("%-28s %14.3f ms/update (modeled)\n",
                "memory time", replayed.memorySeconds / updates * 1e3);
    auto per_update = [&](std::uint64_t v) {
        return static_cast<double>(v) / updates;
    };
    std::printf("%-28s %14.0f\n", "line reads",
                per_update(s.lineAccesses));
    std::printf("%-28s %14.0f  (%.2f%% of reads)\n", "L1d misses",
                per_update(s.l1.misses), 100.0 * s.l1.missRate());
    std::printf("%-28s %14.0f\n", "L2 misses",
                per_update(s.l2.misses));
    std::printf("%-28s %14.0f  (perf: LLC misses)\n", "L3 misses",
                per_update(s.l3.misses));
    std::printf("%-28s %14.0f  (%.2f%%)\n", "dTLB misses",
                per_update(s.tlb.misses), 100.0 * s.tlb.missRate());
    std::printf("%-28s %14.0f\n", "prefetches issued",
                per_update(s.prefetcher.issued));
    std::printf("%-28s %14.0f\n", "prefetch hits",
                per_update(s.l1.prefetchHits));
    return 0;
}

/**
 * @file
 * Allocation churn in the training hot path: measures the steady
 * state step's components in their warm, workspace-backed form, and
 * reports heap allocations per iteration as a benchmark counter
 * (allocs_per_iter, bytes_per_iter) via base::AllocGuard. A
 * regression that reintroduces steady-state churn shows up here as a
 * nonzero counter long before it costs enough wall clock to trip a
 * throughput bench.
 */

#include <benchmark/benchmark.h>

#include "common.hh"
#include "marlin/base/alloc_guard.hh"
#include "marlin/core/train_loop.hh"
#include "marlin/replay/gather.hh"
#include "marlin/replay/uniform_sampler.hh"

namespace
{

using namespace marlin;
using namespace marlin::bench;

core::TrainConfig
churnConfig()
{
    core::TrainConfig config;
    config.batchSize = 64;
    config.bufferCapacity = 4096;
    config.warmupTransitions = 64;
    config.updateEvery = 10;
    config.hiddenDims = {64, 64};
    config.seed = 23;
    return config;
}

/** Attach guard-derived allocation counters to the bench row. */
void
reportAllocs(benchmark::State &state, const base::AllocGuard &guard)
{
    const auto iters = static_cast<double>(state.iterations());
    state.counters["allocs_per_iter"] =
        static_cast<double>(guard.allocations()) / iters;
    state.counters["bytes_per_iter"] =
        static_cast<double>(guard.bytes()) / iters;
}

// --- environment stepping -------------------------------------------

void
BM_EnvStepInto(benchmark::State &state)
{
    auto environment = env::makeCooperativeNavigationEnv(3, 7);
    std::vector<std::vector<Real>> obs;
    environment->resetInto(obs);
    const std::vector<int> actions{1, 2, 3};
    env::StepResult result;
    environment->stepInto(actions, result); // Warm the scratch.
    base::AllocGuard guard;
    for (auto _ : state) {
        environment->stepInto(actions, result);
        benchmark::DoNotOptimize(result.rewards.data());
    }
    reportAllocs(state, guard);
}
BENCHMARK(BM_EnvStepInto);

// --- replay gather --------------------------------------------------

void
BM_GatherWarm(benchmark::State &state)
{
    const auto batch = static_cast<std::size_t>(state.range(0));
    replay::ReplayBuffer buffer({18, 5}, 4096);
    Rng rng(3);
    std::vector<Real> obs(18), next_obs(18), act(5);
    for (BufferIndex i = 0; i < 1024; ++i) {
        for (Real &v : obs)
            v = rng.uniform() * 2 - 1;
        for (Real &v : act)
            v = rng.uniform();
        for (Real &v : next_obs)
            v = rng.uniform() * 2 - 1;
        buffer.add(obs, act, Real(0.1), next_obs, false);
    }
    replay::UniformSampler sampler;
    replay::IndexPlan plan;
    replay::AgentBatch gathered;
    base::AllocGuard guard;
    for (auto _ : state) {
        sampler.planInto(buffer.size(), batch, rng, plan);
        replay::gatherAgentBatch(buffer, plan, gathered);
        benchmark::DoNotOptimize(gathered.obs.data());
    }
    reportAllocs(state, guard);
}
BENCHMARK(BM_GatherWarm)->Arg(64)->Arg(1024);

// --- full trainer update -------------------------------------------

void
BM_TrainerUpdateWarm(benchmark::State &state)
{
    const auto agents = static_cast<std::size_t>(state.range(0));
    auto config = churnConfig();
    auto trainer = makeTrainer(
        Algo::Maddpg, taskObsDims(Task::PredatorPrey, agents), 5,
        config, uniformFactory());
    replay::MultiAgentBuffer buffers(
        taskShapes(Task::PredatorPrey, agents),
        config.bufferCapacity);
    Rng fill_rng(99);
    fillSynthetic(buffers, 512, fill_rng);
    profile::PhaseTimer timer;
    trainer->update(buffers, timer); // Warm the workspaces.
    base::AllocGuard guard;
    for (auto _ : state) {
        const core::UpdateStats stats =
            trainer->update(buffers, timer);
        benchmark::DoNotOptimize(stats.criticLoss);
    }
    reportAllocs(state, guard);
}
BENCHMARK(BM_TrainerUpdateWarm)->Arg(3)->Arg(6);

// --- end-to-end steady-state step ----------------------------------

void
BM_TrainLoopEpisodeWarm(benchmark::State &state)
{
    // Whole episodes through TrainLoop::run, measured past the
    // warm-up regime so every step is in steady state. The loop's
    // own AllocGuard accounting (TrainResult.steadyStateAllocs)
    // feeds the counters, covering exactly the guarded region the
    // alloc.steady_state_* gauges see in production.
    auto environment = env::makeCooperativeNavigationEnv(3, 31);
    auto config = churnConfig();
    core::MaddpgTrainer trainer(
        {environment->obsDim(0), environment->obsDim(1),
         environment->obsDim(2)},
        environment->actionDim(), config, uniformFactory());
    core::TrainLoop loop(*environment, trainer, config);
    loop.run(10); // Past warm-up: later episodes are all steady.
    std::uint64_t allocs = 0, bytes = 0, steps = 0;
    std::size_t target = 10;
    for (auto _ : state) {
        target += 1;
        const core::TrainResult result = loop.run(target);
        allocs += result.steadyStateAllocs;
        bytes += result.steadyStateAllocBytes;
        steps += result.steadyStateSteps;
        benchmark::DoNotOptimize(result.envSteps);
    }
    if (steps > 0) {
        state.counters["allocs_per_step"] =
            static_cast<double>(allocs) / static_cast<double>(steps);
        state.counters["bytes_per_step"] =
            static_cast<double>(bytes) / static_cast<double>(steps);
    }
}
BENCHMARK(BM_TrainLoopEpisodeWarm);

} // namespace

// Hand-rolled BENCHMARK_MAIN so --threads / --isa are consumed
// before google-benchmark's flag parser (which rejects unknown
// flags).
int
main(int argc, char **argv)
{
    marlin::bench::initThreads(argc, argv);
    marlin::bench::initIsa(argc, argv);
    marlin::bench::initLogLevel(argc, argv);
    marlin::bench::ObsSession obs(argc, argv, "bench_alloc_churn");
    marlin::bench::banner("alloc_churn");
    benchmark::Initialize(&argc, argv);
    if (benchmark::ReportUnrecognizedArguments(argc, argv))
        return 1;
    benchmark::RunSpecifiedBenchmarks();
    benchmark::Shutdown();
    return 0;
}

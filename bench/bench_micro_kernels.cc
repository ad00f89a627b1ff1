/**
 * @file
 * google-benchmark microbenchmarks for MARLin's hot kernels: the
 * GEMM variants at the paper's network shapes, the per-sampler
 * index-plan generation, single-buffer gathers under each index
 * pattern, and the sum-tree operations. These feed performance
 * regressions that the figure-level benches are too coarse to see.
 */

#include <benchmark/benchmark.h>

#include "common.hh"
#include "marlin/numeric/gemm.hh"
#include "marlin/numeric/ops.hh"
#include "marlin/replay/gather.hh"
#include "marlin/replay/locality_sampler.hh"
#include "marlin/replay/prioritized_sampler.hh"
#include "marlin/replay/sum_tree.hh"
#include "marlin/replay/uniform_sampler.hh"

namespace
{

using namespace marlin;
using numeric::Matrix;
using numeric::kernels::Isa;

/**
 * Pin the kernel ISA for one benchmark run, skipping cleanly when
 * the host can't run it (the scalar fallback is always available).
 * Returns false when the bench body should bail out.
 */
bool
pinIsa(benchmark::State &state, Isa isa)
{
    if (!numeric::kernels::isaAvailable(isa)) {
        state.SkipWithError("isa not available on this host");
        return false;
    }
    numeric::kernels::setIsa(isa);
    return true;
}

// --- GEMM at the paper's actor/critic shapes -----------------------
// Each GEMM/elementwise bench has a scalar and an avx2 capture so a
// single run reports the vector speedup side by side.

void
BM_GemmCriticForward(benchmark::State &state, Isa isa)
{
    if (!pinIsa(state, isa))
        return;
    // batch x jointDim times jointDim x 64 — the centralized
    // critic's first layer at the given agent count (PP dims).
    const std::size_t agents = static_cast<std::size_t>(state.range(0));
    const std::size_t joint = agents * (4 * agents + 10);
    Rng rng(1);
    Matrix a(1024, joint), b(joint, 64), c;
    numeric::fillUniform(a, rng, -1, 1);
    numeric::fillUniform(b, rng, -1, 1);
    for (auto _ : state) {
        numeric::gemm(a, b, c);
        benchmark::DoNotOptimize(c.data());
    }
    state.SetItemsProcessed(state.iterations() * 1024 * joint * 64);
}
BENCHMARK_CAPTURE(BM_GemmCriticForward, scalar, Isa::Scalar)
    ->Arg(3)->Arg(6)->Arg(12);
BENCHMARK_CAPTURE(BM_GemmCriticForward, avx2, Isa::Avx2)
    ->Arg(3)->Arg(6)->Arg(12);

void
BM_GemmTN(benchmark::State &state, Isa isa)
{
    if (!pinIsa(state, isa))
        return;
    const std::size_t n = static_cast<std::size_t>(state.range(0));
    Rng rng(2);
    Matrix a(1024, n), b(1024, 64), c;
    numeric::fillUniform(a, rng, -1, 1);
    numeric::fillUniform(b, rng, -1, 1);
    for (auto _ : state) {
        numeric::gemmTN(a, b, c);
        benchmark::DoNotOptimize(c.data());
    }
    state.SetItemsProcessed(state.iterations() * 1024 * n * 64);
}
BENCHMARK_CAPTURE(BM_GemmTN, scalar, Isa::Scalar)->Arg(64)->Arg(256);
BENCHMARK_CAPTURE(BM_GemmTN, avx2, Isa::Avx2)->Arg(64)->Arg(256);

void
BM_GemmNT(benchmark::State &state, Isa isa)
{
    if (!pinIsa(state, isa))
        return;
    // batch x out times (in x out)^T — the critic's input-gradient
    // shape for the first hidden layer.
    const std::size_t n = static_cast<std::size_t>(state.range(0));
    Rng rng(9);
    Matrix a(1024, 64), b(n, 64), c;
    std::vector<Real> pack;
    numeric::fillUniform(a, rng, -1, 1);
    numeric::fillUniform(b, rng, -1, 1);
    for (auto _ : state) {
        numeric::gemmNT(a, b, c, pack);
        benchmark::DoNotOptimize(c.data());
    }
    state.SetItemsProcessed(state.iterations() * 1024 * 64 * n);
}
BENCHMARK_CAPTURE(BM_GemmNT, scalar, Isa::Scalar)->Arg(64)->Arg(512);
BENCHMARK_CAPTURE(BM_GemmNT, avx2, Isa::Avx2)->Arg(64)->Arg(512);

void
BM_GemmHiddenForward(benchmark::State &state, Isa isa)
{
    if (!pinIsa(state, isa))
        return;
    // batch x 64 times 64 x 64 with the bias and ReLU fused into the
    // panel's epilogue — one hidden layer's whole forward.
    const std::size_t n = static_cast<std::size_t>(state.range(0));
    Rng rng(10);
    Matrix a(1024, n), b(n, n), bias(1, n), c;
    numeric::fillUniform(a, rng, -1, 1);
    numeric::fillUniform(b, rng, -1, 1);
    numeric::fillUniform(bias, rng, -1, 1);
    for (auto _ : state) {
        numeric::gemm(a, b, c, &bias, true);
        benchmark::DoNotOptimize(c.data());
    }
    state.SetItemsProcessed(state.iterations() * 1024 * n * n);
}
BENCHMARK_CAPTURE(BM_GemmHiddenForward, scalar, Isa::Scalar)->Arg(64);
BENCHMARK_CAPTURE(BM_GemmHiddenForward, avx2, Isa::Avx2)->Arg(64);

// --- Elementwise / optimizer kernels --------------------------------

void
BM_Axpy(benchmark::State &state, Isa isa)
{
    if (!pinIsa(state, isa))
        return;
    const std::size_t n = static_cast<std::size_t>(state.range(0));
    Rng rng(11);
    Matrix x(1, n), y(1, n);
    numeric::fillUniform(x, rng, -1, 1);
    numeric::fillUniform(y, rng, -1, 1);
    const auto &kt = numeric::kernels::active();
    for (auto _ : state) {
        kt.axpy(Real(0.5), x.data(), y.data(), n);
        benchmark::DoNotOptimize(y.data());
    }
    state.SetItemsProcessed(state.iterations() * n);
}
BENCHMARK_CAPTURE(BM_Axpy, scalar, Isa::Scalar)->Arg(1 << 16);
BENCHMARK_CAPTURE(BM_Axpy, avx2, Isa::Avx2)->Arg(1 << 16);

void
BM_AdamStep(benchmark::State &state, Isa isa)
{
    if (!pinIsa(state, isa))
        return;
    const std::size_t n = static_cast<std::size_t>(state.range(0));
    Rng rng(12);
    Matrix w(1, n), g(1, n), m(1, n), v(1, n);
    numeric::fillUniform(w, rng, -1, 1);
    numeric::fillUniform(g, rng, -1, 1);
    numeric::kernels::AdamParams params{
        Real(0.9), Real(0.999), Real(0.1), Real(0.001),
        Real(0.01), Real(1e-8)};
    const auto &kt = numeric::kernels::active();
    for (auto _ : state) {
        kt.adamStep(params, g.data(), w.data(), m.data(), v.data(),
                    n);
        benchmark::DoNotOptimize(w.data());
    }
    state.SetItemsProcessed(state.iterations() * n);
}
BENCHMARK_CAPTURE(BM_AdamStep, scalar, Isa::Scalar)->Arg(1 << 16);
BENCHMARK_CAPTURE(BM_AdamStep, avx2, Isa::Avx2)->Arg(1 << 16);

void
BM_SoftUpdate(benchmark::State &state, Isa isa)
{
    if (!pinIsa(state, isa))
        return;
    const std::size_t n = static_cast<std::size_t>(state.range(0));
    Rng rng(13);
    Matrix s(1, n), d(1, n);
    numeric::fillUniform(s, rng, -1, 1);
    numeric::fillUniform(d, rng, -1, 1);
    const auto &kt = numeric::kernels::active();
    for (auto _ : state) {
        kt.softUpdate(Real(0.01), s.data(), d.data(), n);
        benchmark::DoNotOptimize(d.data());
    }
    state.SetItemsProcessed(state.iterations() * n);
}
BENCHMARK_CAPTURE(BM_SoftUpdate, scalar, Isa::Scalar)->Arg(1 << 16);
BENCHMARK_CAPTURE(BM_SoftUpdate, avx2, Isa::Avx2)->Arg(1 << 16);

// --- Index-plan generation ------------------------------------------

void
BM_PlanUniform(benchmark::State &state)
{
    replay::UniformSampler sampler;
    Rng rng(3);
    for (auto _ : state) {
        auto plan = sampler.plan(1 << 20, 1024, rng);
        benchmark::DoNotOptimize(plan.indices.data());
    }
}
BENCHMARK(BM_PlanUniform);

void
BM_PlanLocality(benchmark::State &state)
{
    replay::LocalityAwareSampler sampler(
        {static_cast<std::size_t>(state.range(0)), 0});
    Rng rng(4);
    for (auto _ : state) {
        auto plan = sampler.plan(1 << 20, 1024, rng);
        benchmark::DoNotOptimize(plan.indices.data());
    }
}
BENCHMARK(BM_PlanLocality)->Arg(16)->Arg(64);

void
BM_PlanPer(benchmark::State &state)
{
    replay::PerConfig cfg;
    cfg.capacity = 1 << 16;
    replay::PrioritizedSampler sampler(cfg);
    for (BufferIndex i = 0; i < cfg.capacity; ++i)
        sampler.onAdd(i);
    Rng rng(5);
    for (auto _ : state) {
        auto plan = sampler.plan(cfg.capacity, 1024, rng);
        benchmark::DoNotOptimize(plan.indices.data());
    }
}
BENCHMARK(BM_PlanPer);

// --- Single-buffer gather under each pattern ------------------------

void
gatherBench(benchmark::State &state, bool sequential)
{
    const std::size_t obs_dim = static_cast<std::size_t>(state.range(0));
    replay::ReplayBuffer buffer({obs_dim, 5}, 1 << 16);
    std::vector<Real> obs(obs_dim), next(obs_dim), act(5, 0);
    for (int t = 0; t < (1 << 16); ++t)
        buffer.add(obs.data(), act.data(), 0, next.data(), false);

    replay::UniformSampler uniform;
    replay::LocalityAwareSampler locality({64, 16});
    replay::Sampler &sampler =
        sequential ? static_cast<replay::Sampler &>(locality)
                   : static_cast<replay::Sampler &>(uniform);
    Rng rng(6);
    replay::AgentBatch batch;
    for (auto _ : state) {
        auto plan = sampler.plan(buffer.size(), 1024, rng);
        replay::gatherAgentBatch(buffer, plan, batch);
        benchmark::DoNotOptimize(batch.obs.data());
    }
    state.SetBytesProcessed(state.iterations() * 1024 *
                            (2 * obs_dim + 5 + 2) * sizeof(Real));
}

void
BM_GatherRandom(benchmark::State &state)
{
    gatherBench(state, false);
}
BENCHMARK(BM_GatherRandom)->Arg(16)->Arg(98);

void
BM_GatherSequentialRuns(benchmark::State &state)
{
    gatherBench(state, true);
}
BENCHMARK(BM_GatherSequentialRuns)->Arg(16)->Arg(98);

// --- Sum tree --------------------------------------------------------

void
BM_SumTreeSet(benchmark::State &state)
{
    replay::SumTree tree(1 << 20);
    Rng rng(7);
    for (auto _ : state) {
        tree.set(rng.randint(1 << 20), rng.uniform());
    }
}
BENCHMARK(BM_SumTreeSet);

void
BM_SumTreeFind(benchmark::State &state)
{
    replay::SumTree tree(1 << 20);
    Rng rng(8);
    for (BufferIndex i = 0; i < (1 << 20); ++i)
        tree.set(i, rng.uniform() + 0.01);
    for (auto _ : state) {
        benchmark::DoNotOptimize(
            tree.find(rng.uniform() * tree.total() * 0.999));
    }
}
BENCHMARK(BM_SumTreeFind);

} // namespace

// Hand-rolled BENCHMARK_MAIN so --threads is consumed before
// google-benchmark's flag parser (which rejects unknown flags).
// The kernel benches pin their own ISA per variant; --isa still
// selects the ISA for the plan/gather/sum-tree benches.
int
main(int argc, char **argv)
{
    marlin::bench::initThreads(argc, argv);
    marlin::bench::initIsa(argc, argv);
    marlin::bench::initLogLevel(argc, argv);
    marlin::bench::ObsSession obs(argc, argv, "bench_micro_kernels");
    marlin::bench::banner("micro_kernels");
    benchmark::Initialize(&argc, argv);
    if (benchmark::ReportUnrecognizedArguments(argc, argv))
        return 1;
    benchmark::RunSpecifiedBenchmarks();
    benchmark::Shutdown();
    return 0;
}

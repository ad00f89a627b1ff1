/**
 * @file
 * Tests for the zero-allocation steady-state contract: AllocGuard
 * accounting itself, and the end-to-end claim that a warm TrainLoop
 * step performs no heap allocation under every shipped sampler, both
 * replay backends and pool sizes 1, 2 and 4.
 */

#include <gtest/gtest.h>

#include <functional>
#include <memory>

#include "marlin/marlin.hh"

namespace marlin
{
namespace
{

TEST(AllocGuard, HookIsInstalled)
{
    // Linking this test pulls in the replacement operator new/delete
    // from the AllocGuard TU; the contract tests below are
    // meaningless if it is not live.
    EXPECT_TRUE(base::AllocGuard::hooked());
}

TEST(AllocGuard, CountsAllocationsAndBytes)
{
    base::AllocGuard guard;
    EXPECT_EQ(guard.allocations(), 0u);
    EXPECT_EQ(guard.bytes(), 0u);

    auto p = std::make_unique<char[]>(1024);
    EXPECT_GE(guard.allocations(), 1u);
    EXPECT_GE(guard.bytes(), 1024u);
}

TEST(AllocGuard, ReportsDeltaSinceOwnConstruction)
{
    base::AllocGuard outer;
    auto a = std::make_unique<int>(1);
    const std::uint64_t before_inner = outer.allocations();

    base::AllocGuard inner;
    EXPECT_EQ(inner.allocations(), 0u);
    auto b = std::make_unique<int>(2);
    EXPECT_GE(inner.allocations(), 1u);
    // The outer guard sees everything the inner one sees.
    EXPECT_GE(outer.allocations(), before_inner + inner.allocations());
}

TEST(AllocGuard, NestedScopesKeepCountingAfterInnerExits)
{
    base::AllocGuard outer;
    {
        base::AllocGuard inner;
        auto p = std::make_unique<int>(3);
        EXPECT_GE(inner.allocations(), 1u);
    }
    // Inner guard destruction must not disable accounting while the
    // outer guard is still alive.
    const std::uint64_t before = outer.allocations();
    auto q = std::make_unique<int>(4);
    EXPECT_GT(outer.allocations(), before);
}

TEST(AllocGuard, QuietScopeReportsZero)
{
    // Reusing a buffer within its capacity never reaches the
    // allocator, so the guard must report nothing.
    std::vector<Real> scratch(16);
    base::AllocGuard guard;
    scratch.assign(8, Real(1));
    scratch.resize(16);
    EXPECT_EQ(guard.allocations(), 0u);
    EXPECT_EQ(guard.bytes(), 0u);
}

// --- end-to-end steady-state contract ------------------------------

std::vector<std::size_t>
dimsOf(const env::Environment &environment)
{
    std::vector<std::size_t> dims;
    for (std::size_t i = 0; i < environment.numAgents(); ++i)
        dims.push_back(environment.obsDim(i));
    return dims;
}

core::TrainConfig
steadyConfig()
{
    core::TrainConfig c;
    c.batchSize = 32;
    c.bufferCapacity = 4096;
    c.warmupTransitions = 64;
    c.updateEvery = 20;
    c.hiddenDims = {32, 32};
    c.seed = 19;
    return c;
}

using TrainerFactory = std::function<std::unique_ptr<core::Trainer>(
    const env::Environment &, const core::TrainConfig &)>;

/**
 * Train one fresh run per pool size in {1, 2, 4}, long enough to pass
 * warm-up plus one policy-delay cycle, and assert that every
 * steady-state step ran without touching the heap. Pinning the pool
 * sizes instead of inheriting the host's core count makes a scratch
 * buffer that first grows on a pool worker after warm-up fail here
 * on any machine.
 */
void
expectZeroAllocAtEveryPoolSize(const core::TrainConfig &config,
                               std::uint64_t env_seed,
                               const TrainerFactory &make_trainer)
{
    struct RestorePool
    {
        ~RestorePool() { base::ThreadPool::setGlobalThreads(0); }
    } restore;
    for (std::size_t threads : {1, 2, 4}) {
        SCOPED_TRACE(::testing::Message() << "pool threads " << threads);
        base::ThreadPool::setGlobalThreads(threads);
        auto environment =
            env::makeCooperativeNavigationEnv(3, env_seed);
        auto trainer = make_trainer(*environment, config);
        core::TrainLoop loop(*environment, *trainer, config);
        const auto result = loop.run(30);

        ASSERT_GT(result.updateCalls, config.policyDelay);
        ASSERT_GT(result.steadyStateSteps, 50u);
        EXPECT_EQ(result.steadyStateAllocs, 0u)
            << result.steadyStateAllocs << " allocations ("
            << result.steadyStateAllocBytes << " bytes) across "
            << result.steadyStateSteps << " steady-state steps";
    }
}

/** MADDPG under @p factory's sampler on the given replay backend. */
void
expectZeroAllocSteadyState(const core::SamplerFactory &factory,
                           core::SamplingBackend backend =
                               core::SamplingBackend::PerAgent)
{
    auto config = steadyConfig();
    config.backend = backend;
    expectZeroAllocAtEveryPoolSize(
        config, 91,
        [&factory](const env::Environment &environment,
                   const core::TrainConfig &c) {
            return std::make_unique<core::MaddpgTrainer>(
                dimsOf(environment), environment.actionDim(), c,
                factory);
        });
}

core::SamplerFactory
uniformFactory()
{
    return [] { return std::make_unique<replay::UniformSampler>(); };
}

TEST(SteadyState, UniformSamplerStepIsAllocationFree)
{
    expectZeroAllocSteadyState(uniformFactory());
}

TEST(SteadyState, ShardedBackendStepIsAllocationFree)
{
    expectZeroAllocSteadyState(uniformFactory(),
                               core::SamplingBackend::Sharded);
}

TEST(SteadyState, PrioritizedSamplerStepIsAllocationFree)
{
    expectZeroAllocSteadyState([] {
        replay::PerConfig per;
        per.capacity = 4096;
        return std::make_unique<replay::PrioritizedSampler>(per);
    });
}

TEST(SteadyState, RankSamplerStepIsAllocationFree)
{
    expectZeroAllocSteadyState([] {
        replay::PerConfig per;
        per.capacity = 4096;
        return std::make_unique<replay::RankBasedSampler>(per);
    });
}

TEST(SteadyState, LocalitySamplerStepIsAllocationFree)
{
    expectZeroAllocSteadyState([] {
        return std::make_unique<replay::LocalityAwareSampler>(
            replay::LocalityConfig{8, 4});
    });
}

TEST(SteadyState, Matd3StepIsAllocationFree)
{
    // MATD3 exercises the twin-critic and delayed-actor paths; its
    // actor scratch only warms after update policyDelay, which the
    // steady-state predicate accounts for.
    expectZeroAllocAtEveryPoolSize(
        steadyConfig(), 92,
        [](const env::Environment &environment,
           const core::TrainConfig &c) {
            return std::make_unique<core::Matd3Trainer>(
                dimsOf(environment), environment.actionDim(), c,
                uniformFactory());
        });
}

TEST(SteadyState, ContinuousActionStepIsAllocationFree)
{
    auto config = steadyConfig();
    config.actionMode = core::ActionMode::Continuous;
    // Continuous control: actors emit a 2D force, so actDim is 2.
    expectZeroAllocAtEveryPoolSize(
        config, 93,
        [](const env::Environment &environment,
           const core::TrainConfig &c) {
            return std::make_unique<core::MaddpgTrainer>(
                dimsOf(environment), 2, c, uniformFactory());
        });
}

} // namespace
} // namespace marlin

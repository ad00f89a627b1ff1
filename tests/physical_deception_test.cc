/**
 * @file
 * Tests for the Physical Deception (mixed) scenario.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <limits>
#include <set>
#include <vector>

#include "marlin/env/environment.hh"
#include "marlin/env/physical_deception.hh"

namespace marlin::env
{
namespace
{

TEST(PhysicalDeception, RosterLayout)
{
    PhysicalDeceptionConfig cfg;
    cfg.numGoodAgents = 2;
    PhysicalDeceptionScenario scenario(cfg);
    World w;
    scenario.makeWorld(w);
    EXPECT_EQ(w.numAgents(), 3u); // 1 adversary + 2 good.
    EXPECT_EQ(w.numLandmarks(), 2u);
    EXPECT_TRUE(w.agents[0].adversary);
    EXPECT_FALSE(w.agents[1].adversary);
    EXPECT_EQ(scenario.learnableAgents(w), 3u);
}

TEST(PhysicalDeception, AdversaryIsBlindToGoal)
{
    PhysicalDeceptionConfig cfg;
    cfg.numGoodAgents = 2;
    PhysicalDeceptionScenario scenario(cfg);
    // Good agents see the goal: +2 dims over the adversary.
    EXPECT_EQ(scenario.observationDim(1),
              scenario.observationDim(0) + 2);

    World w;
    scenario.makeWorld(w);
    Rng rng(1);
    scenario.resetWorld(w, rng);
    // observationInto writes exactly observationDim(i) elements.
    for (std::size_t i = 0; i < 2; ++i) {
        std::vector<Real> out(scenario.observationDim(i) + 1,
                              std::numeric_limits<Real>::quiet_NaN());
        scenario.observationInto(w, i, out.data());
        EXPECT_EQ(std::count_if(out.begin(), out.end(),
                                [](Real v) { return !std::isnan(v); }),
                  static_cast<std::ptrdiff_t>(scenario.observationDim(i)))
            << "agent " << i;
    }

    // The good agent's first two entries are the goal-relative
    // position; moving the goal landmark must change them.
    std::vector<Real> good_before(scenario.observationDim(1));
    scenario.observationInto(w, 1, good_before.data());
    // Move only the goal landmark; the adversary's view of that
    // landmark also shifts, so compare the *goal channel* only.
    const std::size_t goal = scenario.goalIndex();
    w.landmarks[goal].pos += Vec2{0.5f, 0};
    std::vector<Real> good_after(good_before.size());
    scenario.observationInto(w, 1, good_after.data());
    EXPECT_NE(good_before[0], good_after[0]);
}

TEST(PhysicalDeception, RewardsAreZeroSumInDistanceTerm)
{
    PhysicalDeceptionScenario scenario{PhysicalDeceptionConfig{}};
    World w;
    scenario.makeWorld(w);
    Rng rng(2);
    scenario.resetWorld(w, rng);

    // Good team on the goal, adversary far: good reward positive,
    // adversary strongly negative.
    const std::size_t goal = scenario.goalIndex();
    w.agents[1].pos = w.landmarks[goal].pos;
    w.agents[0].pos = {5, 5};
    EXPECT_GT(scenario.reward(w, 1), Real(0));
    EXPECT_LT(scenario.reward(w, 0), Real(-1));

    // Adversary on the goal: its reward ~0 (best case).
    w.agents[0].pos = w.landmarks[goal].pos;
    EXPECT_NEAR(scenario.reward(w, 0), 0.0, 1e-5);
}

TEST(PhysicalDeception, SharedRewardAcrossGoodTeam)
{
    PhysicalDeceptionConfig cfg;
    cfg.numGoodAgents = 3;
    PhysicalDeceptionScenario scenario(cfg);
    World w;
    scenario.makeWorld(w);
    Rng rng(3);
    scenario.resetWorld(w, rng);
    EXPECT_EQ(scenario.reward(w, 1), scenario.reward(w, 2));
    EXPECT_EQ(scenario.reward(w, 2), scenario.reward(w, 3));
}

TEST(PhysicalDeception, GoalVariesAcrossResets)
{
    PhysicalDeceptionConfig cfg;
    cfg.numGoodAgents = 3; // 3 landmarks.
    PhysicalDeceptionScenario scenario(cfg);
    World w;
    scenario.makeWorld(w);
    Rng rng(4);
    std::set<std::size_t> goals;
    for (int i = 0; i < 40; ++i) {
        scenario.resetWorld(w, rng);
        goals.insert(scenario.goalIndex());
    }
    EXPECT_GT(goals.size(), 1u);
}

TEST(PhysicalDeception, RunsInsideEnvironment)
{
    auto environment = std::make_unique<Environment>(
        std::make_unique<PhysicalDeceptionScenario>(
            PhysicalDeceptionConfig{}),
        9);
    std::vector<std::vector<Real>> obs;
    environment->resetInto(obs);
    EXPECT_EQ(obs.size(), 3u);
    StepResult step;
    environment->stepInto({1, 2, 3}, step);
    EXPECT_EQ(step.rewards.size(), 3u);
    for (Real r : step.rewards)
        EXPECT_TRUE(std::isfinite(r));
}

} // namespace
} // namespace marlin::env

/**
 * @file
 * Unit tests for marlin/env: world physics invariants, scenario
 * observation layouts (checked against the paper's dimensions),
 * rewards, and the environment wrapper.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <limits>
#include <vector>

#include "marlin/env/cooperative_navigation.hh"
#include "marlin/env/environment.hh"
#include "marlin/env/predator_prey.hh"

namespace marlin::env
{
namespace
{

/**
 * Elements observationInto writes for agent @p i, counted in a
 * NaN-filled buffer one slot longer than observationDim(i).
 */
std::size_t
writtenObservation(const Scenario &scenario, const World &w,
                   std::size_t i)
{
    std::vector<Real> out(scenario.observationDim(i) + 1,
                          std::numeric_limits<Real>::quiet_NaN());
    scenario.observationInto(w, i, out.data());
    return static_cast<std::size_t>(std::count_if(
        out.begin(), out.end(), [](Real v) { return !std::isnan(v); }));
}

TEST(Vec2, BasicOps)
{
    Vec2 a{3, 4};
    EXPECT_NEAR(a.norm(), 5.0, 1e-6);
    Vec2 u = a.normalized();
    EXPECT_NEAR(u.norm(), 1.0, 1e-6);
    EXPECT_NEAR(distance({0, 0}, {3, 4}), 5.0, 1e-6);
    Vec2 zero{};
    EXPECT_EQ(zero.normalized(), (Vec2{0, 0}));
}

TEST(Entity, DiscreteActionDirections)
{
    EXPECT_EQ(discreteActionDirection(0), (Vec2{0, 0}));
    EXPECT_EQ(discreteActionDirection(1), (Vec2{1, 0}));
    EXPECT_EQ(discreteActionDirection(2), (Vec2{-1, 0}));
    EXPECT_EQ(discreteActionDirection(3), (Vec2{0, 1}));
    EXPECT_EQ(discreteActionDirection(4), (Vec2{0, -1}));
}

TEST(World, FreeAgentDeceleratesUnderDamping)
{
    World w;
    Agent a;
    a.movable = true;
    a.collide = false;
    a.vel = {1, 0};
    w.agents.push_back(a);
    const Real v0 = w.agents[0].vel.norm();
    w.step();
    const Real v1 = w.agents[0].vel.norm();
    EXPECT_LT(v1, v0);
    EXPECT_NEAR(v1, v0 * (1 - w.config().damping), 1e-5);
}

TEST(World, ActionForceAccelerates)
{
    World w;
    Agent a;
    a.movable = true;
    a.collide = false;
    a.actionForce = {1, 0};
    w.agents.push_back(a);
    w.step();
    EXPECT_GT(w.agents[0].vel.x, Real(0));
    EXPECT_EQ(w.agents[0].vel.y, Real(0));
    EXPECT_GT(w.agents[0].pos.x, Real(0));
}

TEST(World, MaxSpeedCaps)
{
    World w;
    Agent a;
    a.movable = true;
    a.collide = false;
    a.maxSpeed = Real(0.5);
    a.actionForce = {100, 0};
    w.agents.push_back(a);
    for (int i = 0; i < 10; ++i)
        w.step();
    EXPECT_LE(w.agents[0].vel.norm(), Real(0.5) + Real(1e-5));
}

TEST(World, ContactForceRepelsOverlappingAgents)
{
    World w;
    Agent a, b;
    a.movable = b.movable = true;
    a.collide = b.collide = true;
    a.size = b.size = Real(0.1);
    a.pos = {0, 0};
    b.pos = {0.05, 0}; // Deep overlap.
    w.agents = {a, b};
    w.step();
    // They must be pushed apart along x.
    EXPECT_LT(w.agents[0].vel.x, Real(0));
    EXPECT_GT(w.agents[1].vel.x, Real(0));
    // Newton's third law: equal magnitudes (same mass).
    EXPECT_NEAR(w.agents[0].vel.x, -w.agents[1].vel.x, 1e-4);
}

TEST(World, ContactForceFiniteForDeepOverlap)
{
    World w;
    Agent a, b;
    a.collide = b.collide = true;
    a.size = b.size = Real(0.5);
    a.pos = {0, 0};
    b.pos = {0, 0}; // Exact coincidence.
    const Vec2 f = w.contactForceOn(a, b);
    EXPECT_TRUE(std::isfinite(f.x));
    EXPECT_TRUE(std::isfinite(f.y));
}

TEST(World, DistantEntitiesExertNegligibleForce)
{
    World w;
    Agent a, b;
    a.collide = b.collide = true;
    a.size = b.size = Real(0.05);
    a.pos = {0, 0};
    b.pos = {1, 0};
    const Vec2 f = w.contactForceOn(a, b);
    EXPECT_LT(std::abs(f.x), 1e-6);
}

TEST(World, IsCollisionRespectsRadii)
{
    Agent a, b;
    a.collide = b.collide = true;
    a.size = Real(0.1);
    b.size = Real(0.1);
    a.pos = {0, 0};
    b.pos = {0.15, 0};
    EXPECT_TRUE(World::isCollision(a, b));
    b.pos = {0.25, 0};
    EXPECT_FALSE(World::isCollision(a, b));
    b.collide = false;
    b.pos = {0, 0};
    EXPECT_FALSE(World::isCollision(a, b));
}

TEST(World, ImmovableLandmarkStaysPut)
{
    World w;
    Agent a;
    a.movable = true;
    a.collide = true;
    a.size = Real(0.1);
    a.pos = {0.05, 0};
    w.agents.push_back(a);
    Entity lm;
    lm.collide = true;
    lm.size = Real(0.2);
    lm.pos = {0, 0};
    w.landmarks.push_back(lm);
    w.step();
    EXPECT_EQ(w.landmarks[0].pos, (Vec2{0, 0}));
    EXPECT_GT(w.agents[0].vel.x, Real(0)); // Pushed away.
}

// --- Paper observation-dimension anchors -------------------------

struct PpDims
{
    std::size_t predators;
    std::size_t predatorObs;
    std::size_t preyObs;
};

class PredatorPreyDims : public ::testing::TestWithParam<PpDims>
{
};

TEST_P(PredatorPreyDims, MatchesPaperObservationSpace)
{
    const auto param = GetParam();
    PredatorPreyConfig cfg;
    cfg.numPredators = param.predators;
    PredatorPreyScenario scenario(cfg);
    EXPECT_EQ(scenario.observationDim(0), param.predatorObs);
    EXPECT_EQ(scenario.observationDim(param.predators),
              param.preyObs);

    World w;
    scenario.makeWorld(w);
    Rng rng(1);
    scenario.resetWorld(w, rng);
    EXPECT_EQ(writtenObservation(scenario, w, 0), param.predatorObs);
    EXPECT_EQ(writtenObservation(scenario, w, param.predators),
              param.preyObs);
}

// The paper (Section II-B): 3 predators -> Box(16)/Box(14);
// 24 predators -> Box(98)/Box(96).
INSTANTIATE_TEST_SUITE_P(PaperAnchors, PredatorPreyDims,
                         ::testing::Values(PpDims{3, 16, 14},
                                           PpDims{24, 98, 96}));

class CooperativeNavDims : public ::testing::TestWithParam<std::size_t>
{
};

TEST_P(CooperativeNavDims, ObservationIsSixN)
{
    const std::size_t n = GetParam();
    CooperativeNavigationConfig cfg;
    cfg.numAgents = n;
    CooperativeNavigationScenario scenario(cfg);
    // Paper: Box(18) at 3 agents ... Box(144) at 24 -> 6N.
    EXPECT_EQ(scenario.observationDim(0), 6 * n);

    World w;
    scenario.makeWorld(w);
    Rng rng(2);
    scenario.resetWorld(w, rng);
    EXPECT_EQ(writtenObservation(scenario, w, 0), 6 * n);
}

INSTANTIATE_TEST_SUITE_P(PaperAnchors, CooperativeNavDims,
                         ::testing::Values(3, 6, 12, 24));

TEST(PredatorPrey, RosterDerivation)
{
    PredatorPreyConfig cfg;
    cfg.numPredators = 24;
    PredatorPreyScenario s(cfg);
    EXPECT_EQ(s.numPrey(), 8u);
    EXPECT_EQ(s.numLandmarks(), 8u);

    PredatorPreyConfig small;
    small.numPredators = 3;
    PredatorPreyScenario s3(small);
    EXPECT_EQ(s3.numPrey(), 1u);
    EXPECT_EQ(s3.numLandmarks(), 2u);
}

TEST(PredatorPrey, PredatorRewardedForTag)
{
    PredatorPreyScenario scenario{PredatorPreyConfig{}};
    World w;
    scenario.makeWorld(w);
    Rng rng(3);
    scenario.resetWorld(w, rng);

    // Move prey far, reward should be shaping-only (negative).
    w.agents[3].pos = {10, 10};
    w.agents[0].pos = {0, 0};
    const Real far = scenario.reward(w, 0);
    EXPECT_LT(far, Real(0));

    // Collide predator 0 with the prey: large positive reward.
    w.agents[3].pos = {0.01f, 0};
    const Real tag = scenario.reward(w, 0);
    EXPECT_GT(tag, Real(5));
    EXPECT_GT(tag, far);
}

TEST(PredatorPrey, PreyPenalizedWhenCaught)
{
    PredatorPreyScenario scenario{PredatorPreyConfig{}};
    World w;
    scenario.makeWorld(w);
    Rng rng(4);
    scenario.resetWorld(w, rng);
    for (auto &a : w.agents)
        a.pos = {5, 5}; // All predators on the prey, out of bounds.
    w.agents[3].pos = {5, 5};
    const Real r = scenario.reward(w, 3);
    EXPECT_LT(r, Real(-5));
}

TEST(PredatorPrey, ScriptedPreyFleesNearestPredator)
{
    PredatorPreyScenario scenario{PredatorPreyConfig{}};
    World w;
    scenario.makeWorld(w);
    Rng rng(5);
    scenario.resetWorld(w, rng);
    w.agents[0].pos = {-0.2f, 0};
    w.agents[1].pos = {-0.5f, 0.5f};
    w.agents[2].pos = {-0.5f, -0.5f};
    w.agents[3].pos = {0, 0};
    // Nearest predator is to the left; flee right (action 1).
    // Prey policy has a 10% random component: take the mode.
    int votes[5] = {};
    for (int i = 0; i < 200; ++i)
        ++votes[scenario.scriptedAction(w, 3, rng)];
    int best = 0;
    for (int a = 1; a < 5; ++a)
        if (votes[a] > votes[best])
            best = a;
    EXPECT_EQ(best, 1);
}

TEST(CooperativeNavigation, SharedRewardImprovesWithCoverage)
{
    CooperativeNavigationConfig cfg;
    cfg.numAgents = 3;
    CooperativeNavigationScenario scenario(cfg);
    World w;
    scenario.makeWorld(w);
    Rng rng(6);
    scenario.resetWorld(w, rng);

    for (auto &a : w.agents)
        a.pos = {5, 5};
    const Real bad = scenario.reward(w, 0);

    for (std::size_t i = 0; i < 3; ++i)
        w.agents[i].pos = w.landmarks[i].pos;
    const Real good = scenario.reward(w, 0);
    EXPECT_GT(good, bad);
    EXPECT_NEAR(good, 0.0, 1e-4); // Perfect coverage, no collisions.
}

TEST(CooperativeNavigation, CollisionPenaltyApplied)
{
    CooperativeNavigationConfig cfg;
    cfg.numAgents = 2;
    CooperativeNavigationScenario scenario(cfg);
    World w;
    scenario.makeWorld(w);
    Rng rng(7);
    scenario.resetWorld(w, rng);
    w.agents[0].pos = {0, 0};
    w.agents[1].pos = {2, 2};
    const Real apart = scenario.reward(w, 0);
    w.agents[1].pos = {0.01f, 0}; // Overlapping.
    const Real touching = scenario.reward(w, 0);
    // Same coverage geometry change aside, the collision penalty
    // must appear; compare against the recomputed coverage term.
    EXPECT_LT(touching, apart + Real(10)); // Sanity.
    // Direct check: both agents collide -> each pays the penalty.
    const Real r0 = scenario.reward(w, 0);
    const Real r1 = scenario.reward(w, 1);
    EXPECT_NEAR(r0, r1, 1e-4); // Symmetric shared + equal penalty.
}

TEST(Environment, ResetAndStepShapes)
{
    auto environment = makePredatorPreyEnv(3, 11);
    EXPECT_EQ(environment->numAgents(), 3u);
    EXPECT_EQ(environment->actionDim(), 5u);
    std::vector<std::vector<Real>> obs;
    environment->resetInto(obs);
    ASSERT_EQ(obs.size(), 3u);
    EXPECT_EQ(obs[0].size(), 16u);

    StepResult step;
    environment->stepInto({1, 2, 3}, step);
    EXPECT_EQ(step.observations.size(), 3u);
    EXPECT_EQ(step.rewards.size(), 3u);
    EXPECT_EQ(step.dones.size(), 3u);
    for (Real r : step.rewards)
        EXPECT_TRUE(std::isfinite(r));
}

TEST(Environment, ScriptedPreyMovesWithoutTrainerInput)
{
    auto environment = makePredatorPreyEnv(3, 13);
    std::vector<std::vector<Real>> obs;
    environment->resetInto(obs);
    const Vec2 prey_before = environment->world().agents[3].pos;
    StepResult step;
    for (int i = 0; i < 5; ++i)
        environment->stepInto({0, 0, 0}, step);
    const Vec2 prey_after = environment->world().agents[3].pos;
    EXPECT_NE(prey_before, prey_after);
}

TEST(Environment, DeterministicUnderSeed)
{
    auto a = makeCooperativeNavigationEnv(3, 99);
    auto b = makeCooperativeNavigationEnv(3, 99);
    std::vector<std::vector<Real>> oa, ob;
    a->resetInto(oa);
    b->resetInto(ob);
    ASSERT_EQ(oa.size(), ob.size());
    for (std::size_t i = 0; i < oa.size(); ++i)
        EXPECT_EQ(oa[i], ob[i]);
    StepResult sa, sb;
    a->stepInto({1, 1, 1}, sa);
    b->stepInto({1, 1, 1}, sb);
    EXPECT_EQ(sa.rewards, sb.rewards);
}

TEST(Environment, ObservationsStayFiniteOverLongRollout)
{
    auto environment = makePredatorPreyEnv(6, 17);
    std::vector<std::vector<Real>> obs;
    environment->resetInto(obs);
    Rng rng(18);
    StepResult step;
    for (int t = 0; t < 500; ++t) {
        std::vector<int> actions(environment->numAgents());
        for (auto &a : actions)
            a = static_cast<int>(rng.randint(5));
        environment->stepInto(actions, step);
        for (const auto &o : step.observations)
            for (Real v : o)
                ASSERT_TRUE(std::isfinite(v)) << "step " << t;
    }
}

} // namespace
} // namespace marlin::env

/**
 * @file
 * Golden observation-semantics tests: pin down the exact layout and
 * meaning of every observation segment against hand-placed worlds,
 * so any silent reordering (which would train fine but break
 * paper-comparability) fails loudly.
 */

#include <gtest/gtest.h>

#include <vector>

#include "marlin/env/cooperative_navigation.hh"
#include "marlin/env/predator_prey.hh"

namespace marlin::env
{
namespace
{

TEST(ObsSemantics, PredatorObservationSegments)
{
    PredatorPreyConfig cfg;
    cfg.numPredators = 3; // +1 prey, 2 landmarks -> Box(16).
    PredatorPreyScenario scenario(cfg);
    World w;
    scenario.makeWorld(w);

    // Hand-placed world.
    w.agents[0].pos = {0.1f, 0.2f};
    w.agents[0].vel = {0.5f, -0.5f};
    w.agents[1].pos = {0.4f, 0.2f};
    w.agents[2].pos = {-0.3f, -0.1f};
    w.agents[3].pos = {0.6f, 0.8f}; // Prey.
    w.agents[3].vel = {1.0f, -1.0f};
    w.landmarks[0].pos = {0.0f, 0.0f};
    w.landmarks[1].pos = {1.0f, 1.0f};

    ASSERT_EQ(scenario.observationDim(0), 16u);
    std::vector<Real> obs(16);
    scenario.observationInto(w, 0, obs.data());
    std::size_t k = 0;
    // [0:2) self velocity.
    EXPECT_FLOAT_EQ(obs[k++], 0.5f);
    EXPECT_FLOAT_EQ(obs[k++], -0.5f);
    // [2:4) self position.
    EXPECT_FLOAT_EQ(obs[k++], 0.1f);
    EXPECT_FLOAT_EQ(obs[k++], 0.2f);
    // [4:8) landmarks relative.
    EXPECT_FLOAT_EQ(obs[k++], -0.1f);
    EXPECT_FLOAT_EQ(obs[k++], -0.2f);
    EXPECT_FLOAT_EQ(obs[k++], 0.9f);
    EXPECT_FLOAT_EQ(obs[k++], 0.8f);
    // [8:14) other agents relative (agents 1, 2, prey 3 in order).
    EXPECT_NEAR(obs[k++], 0.3f, 1e-6);
    EXPECT_FLOAT_EQ(obs[k++], 0.0f);
    EXPECT_FLOAT_EQ(obs[k++], -0.4f);
    EXPECT_NEAR(obs[k++], -0.3f, 1e-6);
    EXPECT_FLOAT_EQ(obs[k++], 0.5f);
    EXPECT_NEAR(obs[k++], 0.6f, 1e-6);
    // [14:16) prey velocity.
    EXPECT_FLOAT_EQ(obs[k++], 1.0f);
    EXPECT_FLOAT_EQ(obs[k++], -1.0f);
}

TEST(ObsSemantics, PreyObservationOmitsOwnVelocityChannel)
{
    PredatorPreyConfig cfg;
    cfg.numPredators = 3;
    PredatorPreyScenario scenario(cfg);
    World w;
    scenario.makeWorld(w);
    Rng rng(1);
    scenario.resetWorld(w, rng);

    // Box(14): no prey-velocity block.
    ASSERT_EQ(scenario.observationDim(3), 14u);
    std::vector<Real> obs(14);
    scenario.observationInto(w, 3, obs.data());
    // First four entries are self vel/pos.
    EXPECT_FLOAT_EQ(obs[0], w.agents[3].vel.x);
    EXPECT_FLOAT_EQ(obs[2], w.agents[3].pos.x);
}

TEST(ObsSemantics, CooperativeNavigationSegments)
{
    CooperativeNavigationConfig cfg;
    cfg.numAgents = 3;
    CooperativeNavigationScenario scenario(cfg);
    World w;
    scenario.makeWorld(w);

    w.agents[0].pos = {0.0f, 0.0f};
    w.agents[0].vel = {0.1f, 0.2f};
    w.agents[1].pos = {0.5f, 0.5f};
    w.agents[2].pos = {-0.5f, 0.5f};
    w.landmarks[0].pos = {0.2f, 0.0f};
    w.landmarks[1].pos = {0.0f, 0.3f};
    w.landmarks[2].pos = {-0.2f, -0.3f};

    ASSERT_EQ(scenario.observationDim(0), 18u);
    std::vector<Real> obs(18);
    scenario.observationInto(w, 0, obs.data());
    std::size_t k = 0;
    EXPECT_FLOAT_EQ(obs[k++], 0.1f); // self vel
    EXPECT_FLOAT_EQ(obs[k++], 0.2f);
    EXPECT_FLOAT_EQ(obs[k++], 0.0f); // self pos
    EXPECT_FLOAT_EQ(obs[k++], 0.0f);
    EXPECT_FLOAT_EQ(obs[k++], 0.2f); // landmark 0 rel
    EXPECT_FLOAT_EQ(obs[k++], 0.0f);
    EXPECT_FLOAT_EQ(obs[k++], 0.0f); // landmark 1 rel
    EXPECT_FLOAT_EQ(obs[k++], 0.3f);
    EXPECT_FLOAT_EQ(obs[k++], -0.2f); // landmark 2 rel
    EXPECT_FLOAT_EQ(obs[k++], -0.3f);
    EXPECT_FLOAT_EQ(obs[k++], 0.5f); // agent 1 rel
    EXPECT_FLOAT_EQ(obs[k++], 0.5f);
    EXPECT_FLOAT_EQ(obs[k++], -0.5f); // agent 2 rel
    EXPECT_FLOAT_EQ(obs[k++], 0.5f);
    // Communication slots are silent zeros.
    for (; k < 18; ++k)
        EXPECT_FLOAT_EQ(obs[k], 0.0f);
}

TEST(ObsSemantics, ObservationsAreTranslationCovariant)
{
    // Shifting the whole world leaves every *relative* segment
    // unchanged; only the absolute self-position slots move.
    CooperativeNavigationConfig cfg;
    cfg.numAgents = 3;
    CooperativeNavigationScenario scenario(cfg);
    World w;
    scenario.makeWorld(w);
    Rng rng(2);
    scenario.resetWorld(w, rng);

    std::vector<Real> before(scenario.observationDim(1));
    scenario.observationInto(w, 1, before.data());
    const Vec2 shift{0.25f, -0.5f};
    for (auto &a : w.agents)
        a.pos += shift;
    for (auto &lm : w.landmarks)
        lm.pos += shift;
    std::vector<Real> after(before.size());
    scenario.observationInto(w, 1, after.data());

    for (std::size_t k = 0; k < before.size(); ++k) {
        if (k == 2) {
            EXPECT_NEAR(after[k], before[k] + shift.x, 1e-5);
        } else if (k == 3) {
            EXPECT_NEAR(after[k], before[k] + shift.y, 1e-5);
        } else {
            EXPECT_NEAR(after[k], before[k], 1e-5) << "slot " << k;
        }
    }
}

TEST(ObsSemantics, PaperScaleRosterDimensions)
{
    // The 24-agent predator-prey roster from Section II-B: agents
    // 25-32 are prey with Box(96), predators have Box(98).
    PredatorPreyConfig cfg;
    cfg.numPredators = 24;
    PredatorPreyScenario scenario(cfg);
    World w;
    scenario.makeWorld(w);
    EXPECT_EQ(w.numAgents(), 32u);
    for (std::size_t i = 0; i < 24; ++i)
        EXPECT_EQ(scenario.observationDim(i), 98u) << i;
    for (std::size_t i = 24; i < 32; ++i)
        EXPECT_EQ(scenario.observationDim(i), 96u) << i;
}

} // namespace
} // namespace marlin::env

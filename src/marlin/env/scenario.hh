/**
 * @file
 * Scenario interface: task-specific world construction, observations
 * and rewards layered over the generic particle World.
 */

#ifndef MARLIN_ENV_SCENARIO_HH
#define MARLIN_ENV_SCENARIO_HH

#include <memory>
#include <string>
#include <vector>

#include "marlin/base/random.hh"
#include "marlin/env/world.hh"

namespace marlin::env
{

/**
 * A Scenario defines everything task-specific: entity roster,
 * initial placement, per-agent observations and rewards, and
 * scripted policies for environment-controlled agents.
 *
 * Only the learnable agents (the first learnableAgents() entries of
 * World::agents) are exposed to trainers; scripted agents are part
 * of the environment, as in the paper's predator-prey setup where
 * the prey are environment-controlled.
 */
class Scenario
{
  public:
    virtual ~Scenario() = default;

    /** Human-readable task name. */
    virtual std::string name() const = 0;

    /** Build the entity roster into @p world. */
    virtual void makeWorld(World &world) = 0;

    /** Randomize initial positions/velocities. */
    virtual void resetWorld(World &world, Rng &rng) = 0;

    /** Number of agents trained by the MARL algorithm. */
    virtual std::size_t learnableAgents(const World &world) const = 0;

    /**
     * Write agent @p i's observation into @p out, which must hold
     * observationDim(i) elements. This is the steady-state hot path:
     * implementations write in place and perform no heap allocation.
     */
    virtual void observationInto(const World &world, std::size_t i,
                                 Real *out) const = 0;

    /** Observation dimensionality for agent @p i. */
    virtual std::size_t observationDim(std::size_t i) const = 0;

    /** Scalar reward for agent @p i in the current world state. */
    virtual Real reward(const World &world, std::size_t i) const = 0;

    /**
     * Discrete action for scripted agent @p i (called only for
     * agents with Agent::scripted set).
     */
    virtual int
    scriptedAction(const World &world, std::size_t i, Rng &rng) const
    {
        return 0;
    }
};

} // namespace marlin::env

#endif // MARLIN_ENV_SCENARIO_HH

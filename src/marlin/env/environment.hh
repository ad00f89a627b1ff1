/**
 * @file
 * Gym-style wrapper combining a World and a Scenario into the
 * reset/step interface the training loop consumes.
 */

#ifndef MARLIN_ENV_ENVIRONMENT_HH
#define MARLIN_ENV_ENVIRONMENT_HH

#include <memory>
#include <vector>

#include "marlin/env/scenario.hh"

namespace marlin::env
{

/** Output of one environment step for the learnable agents. */
struct StepResult
{
    /** Per-agent observation vectors. */
    std::vector<std::vector<Real>> observations;
    /** Per-agent scalar rewards. */
    std::vector<Real> rewards;
    /** Per-agent terminal flags (always false in particle tasks;
     *  episodes end on the external length limit). */
    std::vector<bool> dones;
};

/**
 * Multi-agent environment over a particle world.
 *
 * The trainer controls the first learnableAgents() agents with
 * discrete actions; any scripted agents (e.g. prey) are driven by
 * the scenario's policy inside stepInto().
 */
class Environment
{
  public:
    /**
     * @param scenario Task definition (owned).
     * @param seed RNG seed for resets and scripted agents.
     */
    Environment(std::unique_ptr<Scenario> scenario,
                std::uint64_t seed = 1, WorldConfig world_config = {});

    /** Number of agents the MARL algorithm controls. */
    std::size_t numAgents() const { return _numAgents; }

    /** Observation dimension of learnable agent @p i. */
    std::size_t obsDim(std::size_t i) const;

    /** Discrete action count (5 in all particle tasks). */
    std::size_t actionDim() const { return numDiscreteActions; }

    const Scenario &scenario() const { return *_scenario; }
    const World &world() const { return _world; }
    World &world() { return _world; }

    /**
     * Randomize the world and write initial observations into
     * @p obs (resized to one vector per agent; inner capacity is
     * reused across episodes, so a warm reset does not allocate).
     */
    void resetInto(std::vector<std::vector<Real>> &obs);

    /**
     * Apply one discrete action per learnable agent, script the
     * remaining agents, advance physics, and write observations,
     * rewards and done flags into @p result (the steady-state hot
     * path: a warm call reuses the result's capacity and performs
     * no heap allocation).
     */
    void stepInto(const std::vector<int> &actions, StepResult &result);

    /**
     * Continuous-control variant: apply one 2D force per learnable
     * agent (each component clamped to [-1, 1]); scripted agents
     * still follow their discrete scenario policy.
     */
    void stepContinuousInto(const std::vector<Vec2> &forces,
                            StepResult &result);

    /**
     * Snapshot / restore the environment RNG stream. At an episode
     * boundary this is the environment's only live state
     * (resetInto() rebuilds the world from the stream), so
     * checkpointing it makes resumed runs replay resets
     * bit-identically.
     */
    RngState rngState() const { return rng.state(); }
    void setRngState(const RngState &state) { rng.setState(state); }

  private:
    std::unique_ptr<Scenario> _scenario;
    World _world;
    Rng rng;
    std::size_t _numAgents = 0;

    void
    gatherObservationsInto(std::vector<std::vector<Real>> &obs) const;
};

/** Factory: predator-prey with N trained predators. */
std::unique_ptr<Environment> makePredatorPreyEnv(std::size_t num_agents,
                                                 std::uint64_t seed);

/** Factory: cooperative navigation with N agents. */
std::unique_ptr<Environment>
makeCooperativeNavigationEnv(std::size_t num_agents, std::uint64_t seed);

} // namespace marlin::env

#endif // MARLIN_ENV_ENVIRONMENT_HH

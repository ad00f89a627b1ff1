/**
 * @file
 * Training hyper-parameters. Defaults reproduce the paper's software
 * settings (Section V): two 64-unit ReLU hidden layers, Adam at
 * lr 0.01, batch 1024, gamma 0.95, tau 0.01, replay capacity 1e6,
 * updates every 100 added samples, 25-step episodes.
 */

#ifndef MARLIN_CORE_CONFIG_HH
#define MARLIN_CORE_CONFIG_HH

#include <cstdint>
#include <string>
#include <vector>

#include "marlin/base/types.hh"

namespace marlin::core
{

/** Where mini-batches are gathered from. */
enum class SamplingBackend
{
    /** Baseline: per-agent SoA buffers, O(N*B) gathers per trainer. */
    PerAgent,
    /**
     * Record-major joint records (one JointTransitionLayout record
     * per timestep) in power-of-two shards with an optional
     * mmap-backed cold tier, so capacity can exceed RAM. With the
     * default knobs — one all-hot shard — this is the Section IV-B2
     * layout reorganization: gathers are O(B) record reads. Sampling
     * stays bit-identical for any shard count (logical index space
     * is shard-independent).
     */
    Sharded
};

/** Action-space handling of the trainers. */
enum class ActionMode
{
    /** Paper setting: 5 discrete actions, one-hot in the replay,
     *  Gumbel-sampled policies with a softmax relaxation. */
    Discrete,
    /** Canonical DDPG-style control: tanh actors emit a 2D force,
     *  explored with Ornstein-Uhlenbeck noise. */
    Continuous
};

/**
 * What the training runtime does when a non-finite (NaN/Inf) loss or
 * gradient shows up in an update.
 */
enum class HealthGuardPolicy
{
    /** Count the event in TrainResult but change nothing (default). */
    Off,
    /** Stop the run; TrainResult reports the halt. */
    Halt,
    /** Drop the poisoned agent updates and keep training. */
    SkipUpdate,
    /** Restore the last checkpoint and continue from there. */
    Rollback
};

/** Hyper-parameters shared by MADDPG and MATD3. */
struct TrainConfig
{
    std::size_t batchSize = 1024;
    BufferIndex bufferCapacity = 1'000'000;
    std::vector<std::size_t> hiddenDims = {64, 64};
    Real lr = Real(0.01);
    Real gamma = Real(0.95);
    Real tau = Real(0.01);
    /** Environment steps per episode. */
    std::size_t maxEpisodeLength = 25;
    /** Train every this many buffer insertions. */
    std::size_t updateEvery = 100;
    /** Minimum stored transitions before updates begin. */
    BufferIndex warmupTransitions = 1024;
    /** Exploration: initial epsilon for epsilon-greedy action mix. */
    Real epsilonStart = Real(0.3);
    /** Exploration: final epsilon. */
    Real epsilonEnd = Real(0.02);
    /** Episodes over which epsilon decays linearly. */
    std::size_t epsilonDecayEpisodes = 2000;
    /** MATD3 only: critic updates per actor/target update. */
    std::size_t policyDelay = 2;
    /** MATD3 only: target policy smoothing noise stddev (logits). */
    Real targetNoiseStd = Real(0.2);
    /** MATD3 only: clip bound for the smoothing noise. */
    Real targetNoiseClip = Real(0.5);
    SamplingBackend backend = SamplingBackend::PerAgent;
    /** Sharded backend: power-of-two replay shard count. */
    std::size_t replayShards = 1;
    /**
     * Sharded backend: joint transitions kept in RAM (the hot
     * tier); 0 keeps everything hot. Anything beyond this spills
     * write-behind into mmap segments under replayColdDir.
     */
    BufferIndex replayHotCapacity = 0;
    /** Sharded backend: cold-segment directory ("" = all-hot). */
    std::string replayColdDir;
    ActionMode actionMode = ActionMode::Discrete;
    /** Continuous mode: OU exploration noise scale. */
    Real ouSigma = Real(0.2);
    std::uint64_t seed = 7;
    /** Reaction to NaN/Inf losses or gradients during updates. */
    HealthGuardPolicy healthPolicy = HealthGuardPolicy::Off;
    /**
     * Rollback policy only: rollbacks allowed before the run halts
     * anyway (a deterministic NaN re-derives itself from restored
     * state, so unbounded retries would loop forever).
     */
    std::size_t healthMaxRollbacks = 3;
};

} // namespace marlin::core

#endif // MARLIN_CORE_CONFIG_HH

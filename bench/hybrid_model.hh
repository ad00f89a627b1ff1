/**
 * @file
 * Hybrid measured/modeled phase estimator used by the training-scale
 * benches (Table I, Figures 2, 3, 6, 9, 12, 13).
 *
 * The paper's platform runs mini-batch sampling on the CPU and the
 * actor-critic network computations on a GPU. This container has no
 * GPU, so the benches measure every CPU-bound phase directly (env
 * step, action-selection forward passes, replay insertion, and the
 * real mini-batch gathers at batch 1024) and *model* the GPU-side
 * network phases with the analytic device model (FLOPs / PCIe bytes
 * / kernel-launch latency per update, Section "device_model").
 * Swapping the device config reproduces the paper's cross-platform
 * comparisons (RTX 3090 vs GTX 1070 vs CPU-only).
 */

#ifndef MARLIN_BENCH_HYBRID_MODEL_HH
#define MARLIN_BENCH_HYBRID_MODEL_HH

#include "common.hh"

namespace marlin::bench
{

/** Per-phase seconds; step-scoped and update-scoped entries. */
struct PhaseEstimate
{
    // Per environment step.
    double actionSelection = 0;
    double envStep = 0;
    double bufferAdd = 0;
    // Per update-all-trainers call (all N trainers).
    double sampling = 0;
    double targetQ = 0;
    double qpLoss = 0;
};

/** What the estimator measured/modeled, for reporting. */
struct EstimateContext
{
    std::size_t agents = 0;
    BufferIndex capacity = 0;
    std::size_t batch = 1024;
    std::string device;
};

/** FLOPs of one agent-trainer's target-Q phase. */
inline double
targetQFlops(const std::vector<std::size_t> &dims, std::size_t act_dim,
             std::size_t batch, std::size_t hidden,
             std::size_t joint_dim, bool twin)
{
    double flops = 0;
    for (std::size_t d : dims) {
        flops += memsim::mlpForwardFlops(batch, d, hidden, act_dim);
    }
    flops += memsim::mlpForwardFlops(batch, joint_dim, hidden, 1) *
             (twin ? 2.0 : 1.0);
    return flops;
}

/** FLOPs of one agent-trainer's Q-loss + P-loss phase. */
inline double
qpLossFlops(std::size_t obs_dim, std::size_t act_dim,
            std::size_t batch, std::size_t hidden,
            std::size_t joint_dim, bool twin)
{
    const double critic_fwd =
        memsim::mlpForwardFlops(batch, joint_dim, hidden, 1);
    const double actor_fwd =
        memsim::mlpForwardFlops(batch, obs_dim, hidden, act_dim);
    // Q loss: forward + backward (~3x forward) per critic.
    double flops = 3.0 * critic_fwd * (twin ? 2.0 : 1.0);
    // P loss: critic forward+input-backward plus actor fwd+bwd.
    flops += 3.0 * critic_fwd + 3.0 * actor_fwd;
    return flops;
}

/**
 * Measure CPU phases and model device phases for one configuration.
 *
 * @param algo MADDPG or MATD3.
 * @param task Particle task.
 * @param agents Trained agent count.
 * @param device GPU model; device.present == false means the
 *        network phases run on the CPU and are *measured* from the
 *        real trainer instead of modeled.
 * @param ctx Out-parameter describing the run.
 */
/**
 * Capacity that keeps per-update working sets comparable across an
 * agent sweep: sized for the *largest* agent count so growth ratios
 * between rows are not distorted by per-row capacity changes.
 */
inline BufferIndex
sweepCapacity(Task task, std::size_t max_agents,
              std::size_t budget_mb = 512)
{
    return scaledCapacity(taskShapes(task, max_agents),
                          static_cast<std::size_t>(budget_mb) << 20);
}

inline PhaseEstimate
estimatePhases(Algo algo, Task task, std::size_t agents,
               const memsim::DeviceConfig &device,
               EstimateContext &ctx,
               BufferIndex fixed_capacity = 0)
{
    PhaseEstimate est;
    const std::size_t batch = 1024;
    const std::size_t hidden = 64;
    const std::size_t act_dim = 5;

    auto environment = makeEnvironment(task, agents, agents * 17 + 1);
    const auto dims = obsDims(*environment);
    std::size_t joint_dim = agents * act_dim;
    for (std::size_t d : dims)
        joint_dim += d;

    ctx.agents = agents;
    ctx.batch = batch;
    ctx.device = device.present ? device.name : "cpu-measured";

    // --- Measured: env step + action selection + buffer add ------
    core::TrainConfig config;
    config.batchSize = batch;
    config.hiddenDims = {hidden, hidden};
    config.seed = agents;
    auto trainer = makeTrainer(algo, dims, act_dim, config,
                               uniformFactory());

    std::vector<std::vector<Real>> obs;
    environment->resetInto(obs);
    const int steps = 200;
    std::vector<int> actions;
    {
        profile::Stopwatch sw;
        for (int t = 0; t < steps; ++t)
            trainer->selectActionsInto(obs, 0, actions);
        est.actionSelection = sw.elapsedSeconds() / steps;
    }
    {
        env::StepResult step;
        profile::Stopwatch sw;
        for (int t = 0; t < steps; ++t) {
            actions.assign(agents, t % 5);
            environment->stepInto(actions, step);
        }
        est.envStep = sw.elapsedSeconds() / steps;
    }

    // --- Measured: mini-batch sampling at full batch --------------
    auto shapes = taskShapes(task, agents, act_dim);
    const BufferIndex capacity =
        fixed_capacity ? fixed_capacity
                       : scaledCapacity(shapes, 512ull << 20);
    ctx.capacity = capacity;
    replay::MultiAgentBuffer buffers(shapes, capacity);
    Rng fill_rng(agents * 3 + 1);
    fillSynthetic(buffers, capacity, fill_rng);
    {
        // Buffer-add cost measured against the big buffer.
        profile::Stopwatch sw;
        fillSynthetic(buffers, 64, fill_rng);
        est.bufferAdd = sw.elapsedSeconds() / 64;
    }
    {
        replay::UniformSampler sampler;
        Rng rng(5);
        std::vector<replay::AgentBatch> batches;
        // Warm-up, then timed reps of the full N x N gather.
        for (std::size_t trainer_i = 0; trainer_i < agents;
             ++trainer_i) {
            auto plan = sampler.plan(buffers.size(), batch, rng);
            replay::gatherAllAgents(buffers, plan, batches);
        }
        const int reps = agents >= 12 ? 2 : 4;
        profile::Stopwatch sw;
        for (int rep = 0; rep < reps; ++rep) {
            for (std::size_t trainer_i = 0; trainer_i < agents;
                 ++trainer_i) {
                auto plan = sampler.plan(buffers.size(), batch, rng);
                replay::gatherAllAgents(buffers, plan, batches);
            }
        }
        est.sampling = sw.elapsedSeconds() / reps;
    }

    const bool twin = algo == Algo::Matd3;
    if (device.present) {
        // --- Modeled: network phases offloaded to the GPU ---------
        double tq_flops = 0, qp_flops = 0;
        double tq_bytes = 0, qp_bytes = 0;
        for (std::size_t i = 0; i < agents; ++i) {
            tq_flops += targetQFlops(dims, act_dim, batch, hidden,
                                     joint_dim, twin);
            qp_flops += qpLossFlops(dims[i], act_dim, batch, hidden,
                                    joint_dim, twin);
            // Joint next-state tensor up; q-targets back.
            tq_bytes += 4.0 * batch * joint_dim;
            // Joint current tensor + obs up; losses back.
            qp_bytes += 4.0 * batch * (joint_dim + dims[i]);
        }
        // Kernel launches: 3 layers per forward/backward pass.
        const double tq_launch =
            agents * (dims.size() + (twin ? 2.0 : 1.0)) * 3;
        const double qp_launch =
            agents * ((twin ? 4.0 : 3.0) * 3 /*critic passes*/ +
                      3.0 * 3 /*actor passes*/ + 4.0 /*opt*/);
        est.targetQ =
            offloadSeconds(device, tq_flops, tq_bytes, 4.0 * batch) +
            tq_launch * device.launchLatency;
        est.qpLoss =
            offloadSeconds(device, qp_flops, qp_bytes, 4.0 * batch) +
            qp_launch * device.launchLatency;
        // Action selection also runs on the GPU in the paper: a
        // batch-1 forward per agent is pure launch+transfer.
        est.actionSelection =
            agents *
            offloadSeconds(device,
                           memsim::mlpForwardFlops(1, dims[0], hidden,
                                                   act_dim),
                           4.0 * dims[0], 4.0 * act_dim);
    } else {
        // --- Measured: network phases on this CPU -----------------
        profile::PhaseTimer timer;
        trainer->update(buffers, timer);
        const int reps = agents >= 12 ? 1 : 2;
        timer.reset();
        for (int rep = 0; rep < reps; ++rep)
            trainer->update(buffers, timer);
        est.targetQ =
            timer.seconds(profile::Phase::TargetQ) / reps;
        est.qpLoss = timer.seconds(profile::Phase::QPLoss) / reps;
    }
    return est;
}

/** Paper schedule: 25-step episodes, update every 100 insertions. */
struct Schedule
{
    std::size_t episodes = 60000;
    std::size_t episodeLength = 25;
    std::size_t updateEvery = 100;

    double
    envSteps() const
    {
        return static_cast<double>(episodes) * episodeLength;
    }

    double updates() const { return envSteps() / updateEvery; }
};

/** End-to-end seconds for a schedule under a phase estimate. */
inline double
endToEndSeconds(const PhaseEstimate &est, const Schedule &sched)
{
    const double per_step =
        est.actionSelection + est.envStep + est.bufferAdd;
    const double per_update = est.sampling + est.targetQ + est.qpLoss;
    return sched.envSteps() * per_step +
           sched.updates() * per_update;
}

/** Figure-2-style top-level percentages. */
struct TopSplit
{
    double actionPct = 0;
    double updatePct = 0;
    double otherPct = 0;
};

inline TopSplit
topSplit(const PhaseEstimate &est, const Schedule &sched)
{
    const double action = sched.envSteps() * est.actionSelection;
    const double other =
        sched.envSteps() * (est.envStep + est.bufferAdd);
    const double update =
        sched.updates() * (est.sampling + est.targetQ + est.qpLoss);
    const double total = action + other + update;
    return {100.0 * action / total, 100.0 * update / total,
            100.0 * other / total};
}

/** Figure-3-style update-internal percentages. */
struct UpdateSplit
{
    double samplingPct = 0;
    double targetQPct = 0;
    double qpLossPct = 0;
};

inline UpdateSplit
updateSplit(const PhaseEstimate &est)
{
    const double total = est.sampling + est.targetQ + est.qpLoss;
    return {100.0 * est.sampling / total,
            100.0 * est.targetQ / total,
            100.0 * est.qpLoss / total};
}

} // namespace marlin::bench

#endif // MARLIN_BENCH_HYBRID_MODEL_HH

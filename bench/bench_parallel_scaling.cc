/**
 * @file
 * Thread-pool scaling of the paper's dominant phase: wall-clock for
 * update-all-trainers across threads x agents, emitted as a JSON
 * speedup curve. The paper (Fig. 2/3/6) shows per-agent updates
 * dominating end-to-end time and growing with agent count; the
 * per-agent independence this bench exploits is the primary CPU
 * parallelism opportunity called out by the characterization papers.
 *
 * Also validates the determinism contract end to end: the 12-agent
 * Predator-Prey config must produce bit-identical trainer state at
 * 1 and 4 threads.
 *
 *   ./bench_parallel_scaling [--updates N] [--batch N] [--threads N]
 *
 * Speedups are relative to the 1-thread row of the same agent
 * count. On a single-core host every curve is flat — the JSON header
 * records hardware_concurrency so readers can tell.
 */

#include <sstream>
#include <string>
#include <vector>

#include "common.hh"
#include "marlin/core/checkpoint.hh"

namespace
{

using namespace marlin;
using namespace marlin::bench;

core::TrainConfig
scalingConfig(std::size_t batch)
{
    core::TrainConfig config;
    config.batchSize = batch;
    config.bufferCapacity = 4096;
    config.warmupTransitions = batch;
    config.hiddenDims = {64, 64};
    config.seed = 11;
    return config;
}

std::unique_ptr<core::CtdeTrainerBase>
makeFilledTrainer(std::size_t agents, std::size_t batch,
                  replay::MultiAgentBuffer &buffers)
{
    auto config = scalingConfig(batch);
    auto trainer =
        makeTrainer(Algo::Maddpg, taskObsDims(Task::PredatorPrey, agents),
                    5, config, uniformFactory());
    Rng fill_rng(1234);
    fillSynthetic(buffers, static_cast<BufferIndex>(batch * 4),
                  fill_rng);
    return trainer;
}

/** Seconds of wall clock for @p updates trainer update calls. */
double
timedUpdates(core::CtdeTrainerBase &trainer,
             const replay::MultiAgentBuffer &buffers,
             std::size_t updates)
{
    profile::PhaseTimer timer;
    const profile::Stopwatch watch;
    for (std::size_t u = 0; u < updates; ++u)
        trainer.update(buffers, timer);
    return watch.elapsedSeconds();
}

/** Serialized trainer state after @p updates at @p threads. */
std::string
stateAfterUpdates(std::size_t agents, std::size_t batch,
                  std::size_t updates, std::size_t threads)
{
    base::ThreadPool::setGlobalThreads(threads);
    replay::MultiAgentBuffer buffers(
        taskShapes(Task::PredatorPrey, agents), 4096);
    auto trainer = makeFilledTrainer(agents, batch, buffers);
    profile::PhaseTimer timer;
    for (std::size_t u = 0; u < updates; ++u)
        trainer->update(buffers, timer);
    std::ostringstream os;
    core::RunState state;
    state.trainer = trainer.get();
    core::saveRun(os, state);
    return os.str();
}

long
argValue(int argc, char **argv, const char *name, long fallback)
{
    const std::size_t len = std::strlen(name);
    for (int i = 1; i < argc; ++i) {
        if (std::strcmp(argv[i], name) == 0 && i + 1 < argc)
            return std::strtol(argv[i + 1], nullptr, 10);
        if (std::strncmp(argv[i], name, len) == 0 &&
            argv[i][len] == '=')
            return std::strtol(argv[i] + len + 1, nullptr, 10);
    }
    return fallback;
}

} // namespace

int
main(int argc, char **argv)
{
    initThreads(argc, argv);
    initIsa(argc, argv);
    initLogLevel(argc, argv);
    ObsSession obs(argc, argv, "bench_parallel_scaling");
    banner("Parallel scaling: update-all-trainers across "
           "threads x agents");

    const auto updates = static_cast<std::size_t>(
        argValue(argc, argv, "--updates", 2));
    const auto batch = static_cast<std::size_t>(
        argValue(argc, argv, "--batch", 64));
    const std::vector<std::size_t> thread_counts = {1, 2, 4, 8};
    const std::vector<std::size_t> agent_counts = {3, 6, 12, 24};

    std::printf("%-8s %-8s %14s %9s\n", "agents", "threads",
                "update(s)", "speedup");

    std::ostringstream json;
    json << "{\"bench\": \"parallel_scaling\", \"algo\": \"MADDPG\", "
         << "\"task\": \"predator-prey\", \"hardware_concurrency\": "
         << std::thread::hardware_concurrency()
         << ", \"batch\": " << batch
         << ", \"updates_per_point\": " << updates
         << ", \"results\": [";

    bool first = true;
    for (std::size_t agents : agent_counts) {
        double serial_seconds = 0;
        for (std::size_t threads : thread_counts) {
            base::ThreadPool::setGlobalThreads(threads);
            replay::MultiAgentBuffer buffers(
                taskShapes(Task::PredatorPrey, agents), 4096);
            auto trainer =
                makeFilledTrainer(agents, batch, buffers);
            // One untimed warmup update absorbs lazy allocations
            // (per-agent scratch batches, layer activations).
            profile::PhaseTimer warm;
            trainer->update(buffers, warm);
            const double seconds =
                timedUpdates(*trainer, buffers, updates);
            if (threads == 1)
                serial_seconds = seconds;
            const double speedup =
                seconds > 0 ? serial_seconds / seconds : 0.0;
            std::printf("%-8zu %-8zu %14.4f %9.2f\n", agents,
                        threads, seconds, speedup);
            json << (first ? "" : ", ") << "{\"agents\": " << agents
                 << ", \"threads\": " << threads
                 << ", \"update_seconds\": " << seconds
                 << ", \"speedup\": " << speedup << "}";
            first = false;
        }
    }
    json << "]";

    // Determinism cross-check on the paper's mid-scale config.
    const std::string one = stateAfterUpdates(12, batch, updates, 1);
    const std::string four = stateAfterUpdates(12, batch, updates, 4);
    const bool identical = one == four;
    json << ", \"determinism\": {\"agents\": 12, "
         << "\"threads_compared\": [1, 4], \"bit_identical\": "
         << (identical ? "true" : "false") << "}}";

    std::printf("\n12-agent determinism (1 vs 4 threads): %s\n",
                identical ? "bit-identical" : "MISMATCH");
    std::printf("%s\n", json.str().c_str());

    base::ThreadPool::setGlobalThreads(0);
    return identical ? 0 : 1;
}

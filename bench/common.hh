/**
 * @file
 * Shared helpers for the per-figure benchmark binaries: environment
 * and trainer factories, synthetic buffer filling, capacity scaling,
 * and paper-style table printing.
 *
 * The paper's runs use a 1e6-entry replay buffer and 60,000-episode
 * training on a 32-core Threadripper + RTX 3090. The benches run
 * the same code paths at reduced scale (entries, episodes) chosen to
 * fit one CPU core and the container's memory, and they print the
 * scale factors they apply. The claims being reproduced are shapes
 * and ratios, which stabilize at these scales.
 */

#ifndef MARLIN_BENCH_COMMON_HH
#define MARLIN_BENCH_COMMON_HH

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include "marlin/marlin.hh"
#include "marlin/version.hh"

namespace marlin::bench
{

/** The two paper workloads. */
enum class Algo { Maddpg, Matd3 };

/** The two paper tasks. */
enum class Task { PredatorPrey, CooperativeNavigation };

inline const char *
algoName(Algo a)
{
    return a == Algo::Maddpg ? "MADDPG" : "MATD3";
}

inline const char *
taskName(Task t)
{
    return t == Task::PredatorPrey ? "predator-prey"
                                   : "cooperative-navigation";
}

inline std::unique_ptr<env::Environment>
makeEnvironment(Task task, std::size_t agents, std::uint64_t seed)
{
    return task == Task::PredatorPrey
               ? env::makePredatorPreyEnv(agents, seed)
               : env::makeCooperativeNavigationEnv(agents, seed);
}

inline std::vector<std::size_t>
obsDims(const env::Environment &environment)
{
    std::vector<std::size_t> dims;
    for (std::size_t i = 0; i < environment.numAgents(); ++i)
        dims.push_back(environment.obsDim(i));
    return dims;
}

/** Observation dims for a task without building the environment. */
inline std::vector<std::size_t>
taskObsDims(Task task, std::size_t agents)
{
    if (task == Task::PredatorPrey) {
        env::PredatorPreyConfig cfg;
        cfg.numPredators = agents;
        env::PredatorPreyScenario scenario(cfg);
        std::vector<std::size_t> dims;
        for (std::size_t i = 0; i < agents; ++i)
            dims.push_back(scenario.observationDim(i));
        return dims;
    }
    env::CooperativeNavigationConfig cfg;
    cfg.numAgents = agents;
    env::CooperativeNavigationScenario scenario(cfg);
    std::vector<std::size_t> dims;
    for (std::size_t i = 0; i < agents; ++i)
        dims.push_back(scenario.observationDim(i));
    return dims;
}

inline std::unique_ptr<core::CtdeTrainerBase>
makeTrainer(Algo algo, std::vector<std::size_t> dims,
            std::size_t act_dim, core::TrainConfig config,
            core::SamplerFactory factory)
{
    if (algo == Algo::Maddpg) {
        return std::make_unique<core::MaddpgTrainer>(
            std::move(dims), act_dim, std::move(config),
            std::move(factory));
    }
    return std::make_unique<core::Matd3Trainer>(
        std::move(dims), act_dim, std::move(config),
        std::move(factory));
}

inline core::SamplerFactory
uniformFactory()
{
    return [] { return std::make_unique<replay::UniformSampler>(); };
}

inline core::SamplerFactory
localityFactory(std::size_t neighbors, std::size_t refs)
{
    return [=] {
        return std::make_unique<replay::LocalityAwareSampler>(
            replay::LocalityConfig{neighbors, refs});
    };
}

inline core::SamplerFactory
perFactory(BufferIndex capacity)
{
    return [=] {
        replay::PerConfig cfg;
        cfg.capacity = capacity;
        return std::make_unique<replay::PrioritizedSampler>(cfg);
    };
}

inline core::SamplerFactory
infoPrioritizedFactory(BufferIndex capacity)
{
    return [=] {
        replay::PerConfig cfg;
        cfg.capacity = capacity;
        return std::make_unique<
            replay::InfoPrioritizedLocalitySampler>(cfg);
    };
}

/** Transition shapes for (task, agents) with a given action dim. */
inline std::vector<replay::TransitionShape>
taskShapes(Task task, std::size_t agents, std::size_t act_dim = 5)
{
    std::vector<replay::TransitionShape> shapes;
    for (std::size_t d : taskObsDims(task, agents))
        shapes.push_back({d, act_dim});
    return shapes;
}

/**
 * Largest power-of-two capacity <= 1e6 whose total storage for the
 * given shapes fits @p budget_bytes. Prints nothing; callers report
 * the chosen scale.
 */
inline BufferIndex
scaledCapacity(const std::vector<replay::TransitionShape> &shapes,
               std::size_t budget_bytes = 2ull << 30)
{
    std::size_t bytes_per_entry = 0;
    for (const auto &s : shapes)
        bytes_per_entry += s.flatSize() * sizeof(Real);
    BufferIndex capacity = 1 << 20; // Paper: 1e6 ~ 2^20.
    while (capacity > 1024 &&
           capacity * bytes_per_entry > budget_bytes) {
        capacity >>= 1;
    }
    return capacity;
}

/**
 * Fill every agent's buffer (and optionally a record-major sharded
 * store with the same stream) with synthetic random transitions up
 * to @p count entries. Used by sampling-phase benches where
 * environment dynamics are irrelevant but buffer volume is.
 */
inline void
fillSynthetic(replay::MultiAgentBuffer &buffers, BufferIndex count,
              Rng &rng, replay::ShardedStore *store = nullptr)
{
    const std::size_t n = buffers.numAgents();
    std::vector<std::vector<Real>> obs(n), act(n), next(n);
    std::vector<Real> rew(n);
    std::vector<bool> done(n, false);
    for (std::size_t a = 0; a < n; ++a) {
        const auto &shape = buffers.agent(a).shape();
        obs[a].resize(shape.obsDim);
        next[a].resize(shape.obsDim);
        act[a].assign(shape.actDim, Real(0));
    }
    for (BufferIndex t = 0; t < count; ++t) {
        for (std::size_t a = 0; a < n; ++a) {
            for (auto &v : obs[a])
                v = rng.uniformf();
            for (auto &v : next[a])
                v = rng.uniformf();
            std::fill(act[a].begin(), act[a].end(), Real(0));
            act[a][rng.randint(act[a].size())] = Real(1);
            rew[a] = rng.uniformf();
        }
        buffers.append(obs, act, rew, next, done);
        if (store)
            store->append(obs, act, rew, next, done);
    }
}

/**
 * Configure the global thread pool for a bench binary: honors a
 * --threads N / --threads=N argument, falling back to MARLIN_THREADS
 * and then hardware concurrency. Returns the effective count.
 * Call before banner() so the JSON header records the right value.
 *
 * Consumes the --threads arguments (compacting argv and decrementing
 * argc) so binaries with their own flag parsers — notably
 * google-benchmark, which rejects flags it doesn't know — never see
 * them.
 */
inline std::size_t
initThreads(int &argc, char **argv)
{
    long requested = 0;
    int out = 1;
    for (int i = 1; i < argc; ++i) {
        const char *arg = argv[i];
        if (std::strcmp(arg, "--threads") == 0 && i + 1 < argc) {
            requested = std::strtol(argv[++i], nullptr, 10);
        } else if (std::strncmp(arg, "--threads=", 10) == 0) {
            requested = std::strtol(arg + 10, nullptr, 10);
        } else {
            argv[out++] = argv[i];
        }
    }
    for (int i = out; i < argc; ++i)
        argv[i] = nullptr;
    argc = out;
    base::ThreadPool::setGlobalThreads(
        requested > 0 ? static_cast<std::size_t>(requested) : 0);
    const std::size_t effective = base::ThreadPool::globalThreads();
    std::printf("threads: %zu\n", effective);
    return effective;
}

/**
 * Configure the kernel ISA for a bench binary: honors an
 * --isa NAME / --isa=NAME argument (auto, scalar or avx2) and
 * consumes it from argv the same way initThreads() consumes
 * --threads. "auto" (the default) keeps the startup resolution:
 * MARLIN_ISA if set, else the best ISA the hardware supports.
 * Returns the active ISA's name. Call before banner() so the JSON
 * header records the right value.
 */
inline const char *
initIsa(int &argc, char **argv)
{
    std::string requested;
    int out = 1;
    for (int i = 1; i < argc; ++i) {
        const char *arg = argv[i];
        if (std::strcmp(arg, "--isa") == 0 && i + 1 < argc) {
            requested = argv[++i];
        } else if (std::strncmp(arg, "--isa=", 6) == 0) {
            requested = arg + 6;
        } else {
            argv[out++] = argv[i];
        }
    }
    for (int i = out; i < argc; ++i)
        argv[i] = nullptr;
    argc = out;
    if (!requested.empty() && requested != "auto") {
        const auto isa = numeric::kernels::isaFromString(requested);
        if (!isa.has_value())
            fatal("--isa '%s' is not 'auto', 'scalar' or 'avx2'",
                  requested.c_str());
        numeric::kernels::setIsa(*isa);
    }
    const char *name =
        numeric::kernels::isaName(numeric::kernels::activeIsa());
    std::printf("isa: %s\n", name);
    return name;
}

/**
 * Actor count recorded in every bench JSON header. 1 (the lockstep
 * loop) unless initActors() saw --actors or MARLIN_ACTORS.
 */
inline std::size_t &
bannerActors()
{
    static std::size_t actors = 1;
    return actors;
}

/**
 * Resolve the rollout actor count for a bench binary: honors an
 * --actors N / --actors=N argument, falling back to the
 * MARLIN_ACTORS env var and then 1 (the synchronous lockstep loop).
 * Consumes the argument from argv the same way initThreads()
 * consumes --threads. Call before banner() so the JSON header
 * records the right value.
 */
inline std::size_t
initActors(int &argc, char **argv)
{
    long requested = 0;
    int out = 1;
    for (int i = 1; i < argc; ++i) {
        const char *arg = argv[i];
        if (std::strcmp(arg, "--actors") == 0 && i + 1 < argc) {
            requested = std::strtol(argv[++i], nullptr, 10);
        } else if (std::strncmp(arg, "--actors=", 9) == 0) {
            requested = std::strtol(arg + 9, nullptr, 10);
        } else {
            argv[out++] = argv[i];
        }
    }
    for (int i = out; i < argc; ++i)
        argv[i] = nullptr;
    argc = out;
    if (requested <= 0) {
        const char *env = std::getenv("MARLIN_ACTORS");
        if (env != nullptr)
            requested = std::strtol(env, nullptr, 10);
    }
    bannerActors() =
        requested > 0 ? static_cast<std::size_t>(requested) : 1;
    std::printf("actors: %zu\n", bannerActors());
    return bannerActors();
}

/**
 * Configure log verbosity for a bench binary: honors a
 * --log-level NAME / --log-level=NAME argument (silent, fatal,
 * warn, inform or debug) and consumes it from argv the same way
 * initThreads() consumes --threads, so google-benchmark's flag
 * parser never sees it. Returns the effective level.
 */
inline LogLevel
initLogLevel(int &argc, char **argv)
{
    std::string requested;
    int out = 1;
    for (int i = 1; i < argc; ++i) {
        const char *arg = argv[i];
        if (std::strcmp(arg, "--log-level") == 0 && i + 1 < argc) {
            requested = argv[++i];
        } else if (std::strncmp(arg, "--log-level=", 12) == 0) {
            requested = arg + 12;
        } else {
            argv[out++] = argv[i];
        }
    }
    for (int i = out; i < argc; ++i)
        argv[i] = nullptr;
    argc = out;
    if (!requested.empty())
        setLogLevel(parseLogLevel(requested));
    return logLevel();
}

/**
 * Print a separator + bench header, plus a machine-readable JSON
 * header line recording the bench name, the thread count, the
 * rollout actor count and the kernel ISA the run used — every bench
 * emits this so downstream tooling can never misattribute numbers
 * across parallelism, actor-count or ISA settings.
 */
inline void
banner(const char *title)
{
    std::printf("\n=== %s ===\n", title);
    std::printf("{\"bench\": \"%s\", \"threads\": %zu, "
                "\"actors\": %zu, \"isa\": \"%s\", "
                "\"commit\": \"%s\"}\n",
                title, base::ThreadPool::globalThreads(),
                bannerActors(),
                numeric::kernels::isaName(
                    numeric::kernels::activeIsa()),
                marlin::gitCommit);
}

/** Percentage change from baseline to optimized wall-clock. */
inline double
pctReduction(double baseline, double optimized)
{
    return baseline > 0 ? 100.0 * (baseline - optimized) / baseline
                        : 0.0;
}

/**
 * One-line observability hookup for bench binaries: consumes
 * --telemetry PATH, --telemetry-every N, --trace PATH and
 * --trace-capacity N from argv (same compaction convention as
 * initThreads(), so google-benchmark never sees them). When either
 * sink is requested it turns on kernel invocation counting and, for
 * --trace, installs the process-wide trace ring; destruction writes
 * the closing telemetry summary (a final merged metrics snapshot)
 * and exports the trace, reporting — never hiding — dropped events.
 *
 *   int main(int argc, char **argv) {
 *       ...initThreads/initIsa...
 *       bench::ObsSession obs(argc, argv, "bench_foo");
 *
 * With no flags given, construction is free apart from the argv scan
 * and the bench runs exactly as before.
 */
class ObsSession
{
  public:
    ObsSession(int &argc, char **argv, const char *bench)
    {
        std::string every = "1";
        std::string capacity = "262144";
        int out = 1;
        for (int i = 1; i < argc; ++i) {
            if (!consume(argc, argv, i, "--telemetry",
                         telemetryPath) &&
                !consume(argc, argv, i, "--telemetry-every",
                         every) &&
                !consume(argc, argv, i, "--trace", tracePath) &&
                !consume(argc, argv, i, "--trace-capacity",
                         capacity)) {
                argv[out++] = argv[i];
            }
        }
        for (int i = out; i < argc; ++i)
            argv[i] = nullptr;
        argc = out;

        if (!telemetryPath.empty() || !tracePath.empty())
            numeric::kernels::setCounting(true);
        if (!tracePath.empty()) {
            obs::TraceRing::enable(static_cast<std::size_t>(
                std::strtoull(capacity.c_str(), nullptr, 10)));
        }
        if (!telemetryPath.empty()) {
            everySteps = static_cast<std::size_t>(
                std::strtoull(every.c_str(), nullptr, 10));
            if (everySteps == 0)
                everySteps = 1;
            writer = std::make_unique<obs::TelemetryWriter>(
                telemetryPath,
                std::vector<std::pair<std::string, std::string>>{
                    {"tool", bench},
                    {"threads",
                     std::to_string(
                         base::ThreadPool::globalThreads())},
                    {"isa", numeric::kernels::isaName(
                                numeric::kernels::activeIsa())},
                });
            if (!writer->ok())
                fatal("cannot open --telemetry path '%s'",
                      telemetryPath.c_str());
        }
    }

    ObsSession(const ObsSession &) = delete;
    ObsSession &operator=(const ObsSession &) = delete;

    ~ObsSession()
    {
        if (writer)
            writer->writeSummary(results);
        if (!tracePath.empty()) {
            const obs::TraceRing *ring = obs::TraceRing::active();
            std::string error;
            if (!obs::exportTrace(tracePath, &error)) {
                warn("trace export to '%s' failed: %s",
                     tracePath.c_str(), error.c_str());
                return;
            }
            inform("trace: %zu event(s) -> '%s' (%llu dropped)",
                   ring != nullptr ? ring->size() : std::size_t(0),
                   tracePath.c_str(),
                   static_cast<unsigned long long>(
                       ring != nullptr ? ring->dropped() : 0));
        }
    }

    /** Writer for benches that drive a TrainLoop; null otherwise. */
    obs::TelemetryWriter *telemetry() { return writer.get(); }

    /** Cadence requested via --telemetry-every (default 1). */
    std::size_t telemetryEvery() const { return everySteps; }

    /** Add a (key, value) to the closing summary record. */
    void
    addResult(const std::string &key, double value)
    {
        results.emplace_back(key, value);
    }

  private:
    /** Consume "--flag VALUE" / "--flag=VALUE" at argv[i]. */
    static bool
    consume(int argc, char **argv, int &i, const char *flag,
            std::string &value)
    {
        const std::size_t len = std::strlen(flag);
        if (std::strcmp(argv[i], flag) == 0 && i + 1 < argc) {
            value = argv[++i];
            return true;
        }
        if (std::strncmp(argv[i], flag, len) == 0 &&
            argv[i][len] == '=') {
            value = argv[i] + len + 1;
            return true;
        }
        return false;
    }

    std::string telemetryPath;
    std::string tracePath;
    std::size_t everySteps = 1;
    std::unique_ptr<obs::TelemetryWriter> writer;
    std::vector<std::pair<std::string, double>> results;
};

} // namespace marlin::bench

#endif // MARLIN_BENCH_COMMON_HH

/**
 * @file
 * Round-trip latency of the policy-serving front end over loopback
 * TCP: one closed-loop client against a live Server, at batch
 * deadlines of 0, 200 and 1000 us. With one client there is nothing
 * to coalesce, so this bench isolates the front end's fixed cost
 * (framing, epoll turn, batch bookkeeping, one-row forward). The
 * server flushes a lone request on its next idle turn whatever the
 * deadline, so the rows differ only between requests: at 0 the loop
 * sleeps after each flush and the next request pays its wake-up; at
 * 200 and 1000 us it is still polling when the next one arrives.
 *
 *   ./bench_serve_latency [--benchmark_filter=...]
 *
 * Reports requests_per_s; the multi-connection throughput picture
 * comes from marlin_loadgen, which this bench does not duplicate.
 */

#include <benchmark/benchmark.h>

#include <memory>
#include <thread>

#include "common.hh"

namespace
{

using namespace marlin;
using namespace marlin::bench;

constexpr std::size_t kAgents = 3;

/** A live loopback server plus the trainer shell behind it. */
struct ServerFixture
{
    explicit ServerFixture(std::uint64_t deadline_us)
    {
        core::TrainConfig config;
        config.seed = 11;
        trainer = makeTrainer(
            Algo::Maddpg,
            taskObsDims(Task::CooperativeNavigation, kAgents), 5,
            config, uniformFactory());
        policy.adoptFrom(*trainer);

        serve::ServeConfig scfg;
        scfg.port = 0;
        scfg.batchDeadlineUs = deadline_us;
        server = std::make_unique<serve::Server>(policy, scfg);
        if (!server->start())
            fatal("bench server failed to bind");
        loop = std::thread([this] { server->run(); });
    }

    ~ServerFixture()
    {
        server->stop();
        loop.join();
    }

    std::unique_ptr<core::CtdeTrainerBase> trainer;
    serve::ServePolicy policy;
    std::unique_ptr<serve::Server> server;
    std::thread loop;
};

void
runServeRoundTrip(benchmark::State &state, std::uint64_t deadline_us)
{
    ServerFixture fixture(deadline_us);
    serve::BlockingClient client;
    if (!client.connect("127.0.0.1", fixture.server->port(), 2000))
        fatal("bench client failed to connect");

    Rng rng(17);
    const std::size_t obs_dim = fixture.policy.obsDim(0);
    std::vector<Real> obs(obs_dim);
    std::vector<Real> actions;
    serve::Status status = serve::Status::Ok;
    std::uint64_t requests = 0;
    for (auto _ : state)
    {
        for (auto &v : obs)
            v = rng.uniformf();
        if (!client.request(0, obs.data(), obs.size(), actions,
                            status) ||
            status != serve::Status::Ok) {
            state.SkipWithError("request failed");
            break;
        }
        benchmark::DoNotOptimize(actions.data());
        ++requests;
    }
    state.counters["requests_per_s"] = benchmark::Counter(
        static_cast<double>(requests), benchmark::Counter::kIsRate);
}

} // namespace

int
main(int argc, char **argv)
{
    marlin::bench::initThreads(argc, argv);
    marlin::bench::initIsa(argc, argv);
    marlin::bench::initLogLevel(argc, argv);
    marlin::bench::ObsSession obs(argc, argv,
                                  "bench_serve_latency");
    marlin::bench::banner("serve_latency");

    for (const std::uint64_t deadline_us : {0, 200, 1000})
    {
        const std::string name =
            "BM_ServeRoundTrip/deadline_us:" +
            std::to_string(deadline_us);
        benchmark::RegisterBenchmark(
            name.c_str(),
            [deadline_us](benchmark::State &state) {
                runServeRoundTrip(state, deadline_us);
            })
            ->Unit(benchmark::kMicrosecond)
            ->UseRealTime();
    }

    benchmark::Initialize(&argc, argv);
    if (benchmark::ReportUnrecognizedArguments(argc, argv))
        return 1;
    benchmark::RunSpecifiedBenchmarks();
    benchmark::Shutdown();
    return 0;
}

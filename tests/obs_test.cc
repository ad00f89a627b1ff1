/**
 * @file
 * Tests for the observability layer (marlin/obs): metrics registry
 * merge semantics under the thread pool, histogram "le" bucket
 * edges, telemetry JSONL schema round-trip, trace ring overflow
 * accounting, exception-safe phase spans, and the headline
 * invariant — training with telemetry attached produces a
 * byte-identical checkpoint to the same run without it.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <stdexcept>
#include <vector>

#include "marlin/async/flow_id.hh"
#include "marlin/marlin.hh"

namespace marlin
{
namespace
{

namespace fs = std::filesystem;

/** Fresh temp directory per test; removed on destruction. */
struct TempDir
{
    fs::path path;

    explicit TempDir(const char *tag)
        : path(fs::temp_directory_path() /
               (std::string("marlin_obs_") + tag))
    {
        fs::remove_all(path);
        fs::create_directories(path);
    }

    ~TempDir() { fs::remove_all(path); }

    std::string file(const char *name) const
    {
        return (path / name).string();
    }
};

std::vector<std::string>
readLines(const std::string &path)
{
    std::ifstream in(path);
    EXPECT_TRUE(in.good()) << path;
    std::vector<std::string> lines;
    std::string line;
    while (std::getline(in, line))
        lines.push_back(line);
    return lines;
}

std::string
readAll(const std::string &path)
{
    std::ifstream in(path, std::ios::binary);
    EXPECT_TRUE(in.good()) << path;
    std::ostringstream out;
    out << in.rdbuf();
    return out.str();
}

// --- Registry -------------------------------------------------------

TEST(Registry, CounterMergesShardsExactlyUnderThreadPool)
{
    obs::Counter &c =
        obs::Registry::instance().counter("test.merge.counter");
    c.reset();
    base::ThreadPool pool(4);
    pool.parallelFor(0, 10000, 1, [&](std::size_t b, std::size_t e) {
        for (std::size_t i = b; i < e; ++i)
            c.add(2);
    });
    // parallelFor is a barrier, so the merged read is exact.
    EXPECT_EQ(c.value(), 20000u);
}

TEST(Registry, SameNameReturnsSameMetric)
{
    obs::Registry &reg = obs::Registry::instance();
    obs::Counter &a = reg.counter("test.same.counter");
    obs::Counter &b = reg.counter("test.same.counter");
    EXPECT_EQ(&a, &b);
    obs::Gauge &g = reg.gauge("test.same.gauge");
    g.set(3.5);
    g.set(-1.25); // Gauges overwrite, never accumulate.
    EXPECT_DOUBLE_EQ(reg.gauge("test.same.gauge").value(), -1.25);
}

TEST(Registry, SnapshotCarriesEveryKind)
{
    obs::Registry &reg = obs::Registry::instance();
    reg.counter("test.snap.counter").reset();
    reg.counter("test.snap.counter").add(7);
    reg.gauge("test.snap.gauge").set(2.5);
    reg.histogram("test.snap.hist", {1.0, 10.0}).observe(5.0);

    bool saw_counter = false, saw_gauge = false, saw_hist = false;
    for (const obs::MetricSample &s : reg.snapshot()) {
        if (s.name == "test.snap.counter") {
            saw_counter = true;
            EXPECT_EQ(s.kind, obs::MetricSample::Kind::Counter);
            EXPECT_EQ(s.count, 7u);
        } else if (s.name == "test.snap.gauge") {
            saw_gauge = true;
            EXPECT_DOUBLE_EQ(s.value, 2.5);
        } else if (s.name == "test.snap.hist") {
            saw_hist = true;
            EXPECT_EQ(s.kind, obs::MetricSample::Kind::Histogram);
            ASSERT_EQ(s.buckets.size(), 3u); // 2 bounds + overflow.
        }
    }
    EXPECT_TRUE(saw_counter && saw_gauge && saw_hist);
}

TEST(Histogram, LeBucketEdgesAndOverflow)
{
    obs::Histogram &h = obs::Registry::instance().histogram(
        "test.edges.hist", {1.0, 10.0, 100.0});
    h.reset();
    // "le" semantics: a value exactly on a bound lands in that
    // bucket, not the next one.
    h.observe(0.5);   // <= 1
    h.observe(1.0);   // <= 1 (boundary)
    h.observe(1.001); // <= 10
    h.observe(10.0);  // <= 10 (boundary)
    h.observe(100.0); // <= 100 (boundary)
    h.observe(101.0); // overflow
    h.observe(1e9);   // overflow

    ASSERT_EQ(h.numBuckets(), 4u);
    EXPECT_EQ(h.bucketCount(0), 2u);
    EXPECT_EQ(h.bucketCount(1), 2u);
    EXPECT_EQ(h.bucketCount(2), 1u);
    EXPECT_EQ(h.bucketCount(3), 2u);
    EXPECT_EQ(h.totalCount(), 7u);
    EXPECT_DOUBLE_EQ(h.bucketUpperBound(1), 10.0);
    EXPECT_TRUE(std::isinf(h.bucketUpperBound(3)));
    EXPECT_DOUBLE_EQ(h.sum(),
                     0.5 + 1.0 + 1.001 + 10.0 + 100.0 + 101.0 + 1e9);
}

// --- Telemetry JSONL ------------------------------------------------

TEST(Telemetry, JsonlSchemaRoundTrip)
{
    TempDir dir("telemetry");
    const std::string path = dir.file("run.jsonl");
    auto &registry = obs::Registry::instance();
    registry.resetAll();
    registry.counter("test.telemetry.dropped").add(2);
    registry.gauge("test.telemetry.depth").set(17);
    registry.histogram("test.telemetry.transit_us", {100, 1000})
        .observe(120.5);
    {
        obs::TelemetryWriter writer(
            path, {{"algo", "maddpg"}, {"task", "cn"}});
        ASSERT_TRUE(writer.ok());

        obs::StepRecord rec;
        rec.episode = 3;
        rec.envStep = 75;
        rec.updateCalls = 1;
        rec.phaseNs.emplace_back("env_step", 1234u);
        rec.haveLosses = true;
        rec.criticLoss = 0.25;
        rec.actorLoss = -0.5;
        writer.writeStep(rec);

        obs::StepRecord no_losses;
        no_losses.envStep = 76;
        writer.writeStep(no_losses);

        writer.writeSummary({{"final_score", -42.5}});
        EXPECT_EQ(writer.recordsWritten(), 4u);
    }

    const std::vector<std::string> lines = readLines(path);
    ASSERT_EQ(lines.size(), 4u);
    for (const std::string &line : lines) {
        ASSERT_FALSE(line.empty());
        EXPECT_EQ(line.front(), '{');
        EXPECT_EQ(line.back(), '}');
    }
    // Header: schema version, commit, meta round-trip.
    EXPECT_NE(lines[0].find("\"record\":\"header\""),
              std::string::npos);
    EXPECT_NE(lines[0].find("\"schema\":" + std::to_string(
                                obs::telemetrySchemaVersion)),
              std::string::npos);
    EXPECT_NE(lines[0].find("\"commit\":"), std::string::npos);
    EXPECT_NE(lines[0].find("\"algo\":\"maddpg\""),
              std::string::npos);
    // Step with losses carries them; step without doesn't.
    EXPECT_NE(lines[1].find("\"record\":\"step\""),
              std::string::npos);
    EXPECT_NE(lines[1].find("\"env_step\":75"), std::string::npos);
    EXPECT_NE(lines[1].find("\"env_step\":1234"), std::string::npos)
        << "phase_ns map should carry the env_step phase delta";
    EXPECT_NE(lines[1].find("\"critic_loss\":"), std::string::npos);
    EXPECT_EQ(lines[2].find("\"critic_loss\":"), std::string::npos);
    // Every step record embeds the registry snapshot: counters,
    // gauges and histograms (schema v5 copies none of them into
    // fields of their own).
    for (const std::size_t i : {1, 2}) {
        EXPECT_NE(lines[i].find("\"test.telemetry.dropped\":{"
                                "\"kind\":\"counter\",\"count\":2}"),
                  std::string::npos);
        EXPECT_NE(lines[i].find("\"test.telemetry.depth\":{"
                                "\"kind\":\"gauge\",\"value\":17}"),
                  std::string::npos);
        EXPECT_NE(lines[i].find("\"test.telemetry.transit_us\":{"
                                "\"kind\":\"histogram\",\"count\":1,"
                                "\"sum\":120.5,\"buckets\":[[100,0],"
                                "[1000,1],[\"+Inf\",0]]}"),
                  std::string::npos);
        EXPECT_EQ(lines[i].find("\"ring_depth\":"), std::string::npos);
        EXPECT_EQ(lines[i].find("\"transit_p50_us\":"),
                  std::string::npos);
    }
    // Summary: results and a final metrics snapshot.
    EXPECT_NE(lines[3].find("\"record\":\"summary\""),
              std::string::npos);
    EXPECT_NE(lines[3].find("\"final_score\":-42.5"),
              std::string::npos);
    EXPECT_NE(lines[3].find("\"metrics\":"), std::string::npos);
}

TEST(Telemetry, JsonEscapeControlAndQuote)
{
    EXPECT_EQ(obs::jsonEscape("a\"b\\c\nd"), "a\\\"b\\\\c\\nd");
    EXPECT_EQ(obs::jsonEscape(std::string(1, '\x01')), "\\u0001");
}

// --- Trace ring -----------------------------------------------------

TEST(Trace, RingOverflowIsCountedNeverSilent)
{
    obs::TraceRing::enable(8);
    obs::TraceRing *ring = obs::TraceRing::active();
    ASSERT_NE(ring, nullptr);
    for (int i = 0; i < 20; ++i)
        obs::recordSpan("span", "test", 100u * i, 50);
    EXPECT_EQ(ring->capacity(), 8u);
    EXPECT_EQ(ring->size(), 8u);
    EXPECT_EQ(ring->dropped(), 12u);
    // Drop-newest: the earliest events survive.
    EXPECT_EQ(ring->event(0).startNs, 0u);
    EXPECT_EQ(ring->event(7).startNs, 700u);

    TempDir dir("trace");
    const std::string path = dir.file("trace.json");
    std::string error;
    ASSERT_TRUE(obs::exportTrace(path, &error)) << error;
    const std::string json = readAll(path);
    EXPECT_NE(json.find("\"traceEvents\""), std::string::npos);
    EXPECT_NE(json.find("\"ph\":\"X\""), std::string::npos);
    EXPECT_NE(json.find("\"droppedEvents\":12"), std::string::npos);
    EXPECT_NE(json.find("\"storedEvents\":8"), std::string::npos);
    obs::TraceRing::disable();
}

TEST(Trace, DroppedSpansSurfaceAsRegistryCounter)
{
    obs::Counter &dropped =
        obs::Registry::instance().counter("trace.dropped");
    obs::TraceRing::enable(4);
    const std::uint64_t before = dropped.value();
    for (int i = 0; i < 10; ++i)
        obs::recordSpan("span", "test", 100u * i, 50);
    // 4 stored, 6 rejected; the registry counter mirrors the ring's
    // local accounting so a /metrics scrape sees the loss live.
    EXPECT_EQ(obs::TraceRing::active()->dropped(), 6u);
    EXPECT_EQ(dropped.value(), before + 6);
    obs::TraceRing::disable();
}

TEST(Trace, SnapshotRejectionsAreCounted)
{
    obs::TraceRing::enable(64);
    obs::TraceRing *ring = obs::TraceRing::active();
    ASSERT_NE(ring, nullptr);
    obs::recordSpan("kept", "test", 0, 1);

    // While an export snapshot walks the ring, concurrent record()
    // calls are rejected — but never silently: they count as drops.
    ring->beginSnapshot();
    obs::recordSpan("rejected", "test", 10, 1);
    obs::recordSpan("rejected", "test", 20, 1);
    ring->endSnapshot();
    obs::recordSpan("kept", "test", 30, 1);

    EXPECT_EQ(ring->size(), 2u);
    EXPECT_EQ(ring->dropped(), 2u);
    obs::TraceRing::disable();
}

TEST(Trace, FlowSpansExportBindIdPairing)
{
    obs::TraceRing::enable(64);
    const std::uint64_t id = async::transitionFlowId(2, 41);
    EXPECT_NE(id, 0u); // 0 is reserved for "no flow".
    obs::recordFlowSpan("actor_push", "async", 100, 5, id,
                        obs::FlowDir::Out);
    obs::recordFlowSpan("ring_drain", "async", 300, 7, id,
                        obs::FlowDir::In);
    obs::recordSpan("plain", "async", 400, 1);

    TempDir dir("flow");
    const std::string path = dir.file("trace.json");
    std::string error;
    ASSERT_TRUE(obs::exportTrace(path, &error)) << error;
    const std::string json = readAll(path);

    char bind[64];
    std::snprintf(bind, sizeof(bind), "\"bind_id\":\"0x%llx\"",
                  static_cast<unsigned long long>(id));
    // Both ends carry the same id, one out + one in; the plain span
    // carries no flow fields at all.
    const std::size_t first = json.find(bind);
    ASSERT_NE(first, std::string::npos);
    EXPECT_NE(json.find(bind, first + 1), std::string::npos);
    EXPECT_NE(json.find("\"flow_out\":true"), std::string::npos);
    EXPECT_NE(json.find("\"flow_in\":true"), std::string::npos);
    const std::size_t plain = json.find("\"name\":\"plain\"");
    ASSERT_NE(plain, std::string::npos);
    EXPECT_EQ(json.find("bind_id", plain), std::string::npos);
    obs::TraceRing::disable();
}

TEST(Trace, DisabledRecordingIsANoOp)
{
    obs::TraceRing::disable();
    EXPECT_EQ(obs::TraceRing::active(), nullptr);
    obs::recordSpan("ignored", "test", 0, 1); // Must not crash.
    std::string error;
    EXPECT_FALSE(obs::exportTrace("/nonexistent/dir/x.json",
                                  &error));
    EXPECT_FALSE(error.empty());
}

TEST(Trace, ScopedPhaseRecordsSpanEvenWhenThrowing)
{
    obs::TraceRing::enable(64);
    profile::PhaseTimer timer;
    try {
        profile::ScopedPhase sp(timer, profile::Phase::Sampling);
        throw std::runtime_error("unwind through the span");
    } catch (const std::runtime_error &) {
    }
    // Satellite 6: the phase is accounted and the span recorded
    // even though the scope exited by exception.
    EXPECT_GT(timer.nanoseconds(profile::Phase::Sampling), 0u);
    obs::TraceRing *ring = obs::TraceRing::active();
    ASSERT_NE(ring, nullptr);
    bool found = false;
    for (std::size_t i = 0; i < ring->size(); ++i) {
        if (std::string(ring->event(i).name) ==
            "mini_batch_sampling")
            found = true;
    }
    EXPECT_TRUE(found);
    obs::TraceRing::disable();
}

// --- Kernel counting shim -------------------------------------------

TEST(KernelCounting, CountsCallsWithoutChangingResults)
{
    const std::size_t n = 37; // Odd length so tails run.
    std::vector<Real> x(n), y_plain(n), y_counted(n);
    for (std::size_t i = 0; i < n; ++i) {
        x[i] = Real(0.25) * static_cast<Real>(i);
        y_plain[i] = y_counted[i] = Real(1.5);
    }

    numeric::kernels::setCounting(false);
    numeric::kernels::active().axpy(Real(2), x.data(),
                                    y_plain.data(), n);

    obs::Registry &reg = obs::Registry::instance();
    numeric::kernels::setCounting(true);
    ASSERT_TRUE(numeric::kernels::countingEnabled());
    const std::uint64_t calls_before =
        reg.counter("kernels.axpy.calls").value();
    const std::uint64_t elems_before =
        reg.counter("kernels.axpy.elems").value();
    numeric::kernels::active().axpy(Real(2), x.data(),
                                    y_counted.data(), n);
    EXPECT_EQ(reg.counter("kernels.axpy.calls").value(),
              calls_before + 1);
    EXPECT_EQ(reg.counter("kernels.axpy.elems").value(),
              elems_before + n);
    numeric::kernels::setCounting(false);
    ASSERT_FALSE(numeric::kernels::countingEnabled());

    // The shim forwards to the same underlying table: identical
    // bytes out.
    EXPECT_EQ(std::memcmp(y_plain.data(), y_counted.data(),
                          n * sizeof(Real)),
              0);
}

// --- End-to-end: telemetry must not perturb training ----------------

core::TrainConfig
smallConfig()
{
    core::TrainConfig c;
    c.batchSize = 32;
    c.bufferCapacity = 4096;
    c.warmupTransitions = 64;
    c.updateEvery = 20;
    c.hiddenDims = {16, 16};
    c.seed = 21;
    return c;
}

/**
 * Train a small MADDPG run with the global pool at @p threads and
 * save its checkpoint bytes.
 */
std::string
trainAndCheckpoint(const std::string &ckpt_path,
                   obs::TelemetryWriter *telemetry, std::size_t threads)
{
    base::ThreadPool::setGlobalThreads(threads);
    auto environment = env::makeCooperativeNavigationEnv(2, 5);
    core::TrainConfig config = smallConfig();
    std::vector<std::size_t> dims;
    for (std::size_t i = 0; i < environment->numAgents(); ++i)
        dims.push_back(environment->obsDim(i));
    core::MaddpgTrainer trainer(
        dims, environment->actionDim(), config,
        [] { return std::make_unique<replay::UniformSampler>(); });
    core::TrainLoop loop(*environment, trainer, config);
    if (telemetry != nullptr)
        loop.setTelemetry(telemetry, 3);
    loop.run(6);
    core::RunState state;
    state.trainer = &trainer;
    EXPECT_TRUE(core::saveRunFile(ckpt_path, state));
    base::ThreadPool::setGlobalThreads(0); // Restore auto sizing.
    return readAll(ckpt_path);
}

TEST(Telemetry, TrainingIsByteIdenticalWithTelemetryOnOrOff)
{
    // The plain run is serial and the observed one runs on a pool
    // of 4, so the observers are checked against the parallel path
    // on any host.
    TempDir dir("identity");
    const std::string plain =
        trainAndCheckpoint(dir.file("plain.ckpt"), nullptr, 1);

    obs::TraceRing::enable(1 << 14); // Both sinks live this run.
    std::string observed;
    {
        obs::TelemetryWriter writer(dir.file("run.jsonl"),
                                    {{"test", "identity"}});
        ASSERT_TRUE(writer.ok());
        observed = trainAndCheckpoint(dir.file("observed.ckpt"),
                                      &writer, 4);
        EXPECT_GT(writer.recordsWritten(), 2u);
    }
    obs::TraceRing::disable();

    ASSERT_FALSE(plain.empty());
    EXPECT_EQ(plain, observed)
        << "telemetry/trace sinks must be pure observers";
}

} // namespace
} // namespace marlin

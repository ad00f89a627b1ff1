/**
 * @file
 * Serving front end tests: wire-protocol framing under arbitrary
 * fragmentation and corruption, micro-batcher grouping semantics,
 * loopback server behavior (correct actions, in-band semantic
 * errors, per-connection isolation of framing violations, the
 * idle-turn flush and the bounded poll window after it) and hot
 * checkpoint reload.
 */

#include <gtest/gtest.h>

#include <chrono>
#include <cstring>
#include <ctime>
#include <filesystem>
#include <fstream>
#include <memory>
#include <thread>
#include <vector>

#include <pthread.h>

#include "marlin/base/instant.hh"
#include "marlin/core/checkpoint.hh"
#include "marlin/core/maddpg.hh"
#include "marlin/env/cooperative_navigation.hh"
#include "marlin/replay/uniform_sampler.hh"
#include "marlin/serve/client.hh"
#include "marlin/serve/reload.hh"
#include "marlin/serve/server.hh"

namespace
{

using namespace marlin;

constexpr std::size_t kAgents = 3;

std::unique_ptr<core::CtdeTrainerBase>
makeTrainer(std::uint64_t seed)
{
    auto environment =
        env::makeCooperativeNavigationEnv(kAgents, seed);
    std::vector<std::size_t> dims;
    for (std::size_t i = 0; i < environment->numAgents(); ++i)
        dims.push_back(environment->obsDim(i));
    core::TrainConfig config;
    config.hiddenDims = {16, 16};
    config.seed = seed;
    return std::make_unique<core::MaddpgTrainer>(
        dims, environment->actionDim(), config,
        [] { return std::make_unique<replay::UniformSampler>(); });
}

std::vector<Real>
randomObs(std::size_t n, Rng &rng)
{
    std::vector<Real> obs(n);
    for (auto &v : obs)
        v = rng.uniformf();
    return obs;
}

/** Expected actions: the policy's own batched forward, one row. */
std::vector<Real>
localForward(serve::ServePolicy &policy, std::size_t agent,
             const std::vector<Real> &obs)
{
    numeric::Matrix x(1, obs.size(), obs);
    numeric::Matrix y;
    policy.forward(agent, x, y);
    return std::vector<Real>(y.data(), y.data() + y.cols());
}

std::string
freshDir(const std::string &name)
{
    const std::string dir = ::testing::TempDir() + "marlin_" + name;
    std::filesystem::remove_all(dir);
    std::filesystem::create_directories(dir);
    return dir;
}

// ---------------------------------------------------------------
// Protocol framing
// ---------------------------------------------------------------

TEST(ServeProtocol, RequestRoundTrip)
{
    std::vector<std::byte> wire;
    const std::vector<Real> obs = {0.25f, -1.5f, 3.0f};
    serve::encodeRequest(wire, 7, obs.data(), obs.size());
    ASSERT_EQ(wire.size(),
              serve::headerBytes + obs.size() * sizeof(Real));

    serve::FrameDecoder decoder(serve::requestMagic, 1 << 20);
    decoder.feed(wire.data(), wire.size());
    serve::RequestView view;
    ASSERT_EQ(decoder.next(view),
              serve::FrameDecoder::Result::Frame);
    EXPECT_EQ(view.agentId, 7);
    ASSERT_EQ(view.obsCount(), obs.size());
    std::vector<Real> decoded(view.obsCount());
    view.copyObs(decoded.data());
    EXPECT_EQ(decoded, obs);
    EXPECT_EQ(decoder.next(view),
              serve::FrameDecoder::Result::NeedMore);
    EXPECT_EQ(decoder.pendingBytes(), 0u);
}

TEST(ServeProtocol, ResponseRoundTrip)
{
    std::vector<std::byte> wire;
    const std::vector<Real> actions = {1.0f, 0.0f};
    serve::encodeResponse(wire, serve::Status::Ok, actions.data(),
                          actions.size());

    serve::FrameDecoder decoder(serve::responseMagic, 1 << 20);
    decoder.feed(wire.data(), wire.size());
    serve::ResponseView view;
    ASSERT_EQ(decoder.next(view),
              serve::FrameDecoder::Result::Frame);
    EXPECT_EQ(view.status, serve::Status::Ok);
    ASSERT_EQ(view.actionCount(), actions.size());
    std::vector<Real> decoded(view.actionCount());
    view.copyActions(decoded.data());
    EXPECT_EQ(decoded, actions);
}

TEST(ServeProtocol, ErrorResponseCarriesNoPayload)
{
    std::vector<std::byte> wire;
    serve::encodeResponse(wire, serve::Status::BadAgent, nullptr, 0);
    serve::FrameDecoder decoder(serve::responseMagic, 1 << 20);
    decoder.feed(wire.data(), wire.size());
    serve::ResponseView view;
    ASSERT_EQ(decoder.next(view),
              serve::FrameDecoder::Result::Frame);
    EXPECT_EQ(view.status, serve::Status::BadAgent);
    EXPECT_EQ(view.actionCount(), 0u);
}

TEST(ServeProtocol, FragmentedByteAtATime)
{
    std::vector<std::byte> wire;
    const std::vector<Real> obs = {1.0f, 2.0f, 3.0f, 4.0f};
    serve::encodeRequest(wire, 2, obs.data(), obs.size());

    serve::FrameDecoder decoder(serve::requestMagic, 1 << 20);
    serve::RequestView view;
    for (std::size_t i = 0; i + 1 < wire.size(); ++i) {
        decoder.feed(&wire[i], 1);
        ASSERT_EQ(decoder.next(view),
                  serve::FrameDecoder::Result::NeedMore)
            << "byte " << i;
    }
    decoder.feed(&wire[wire.size() - 1], 1);
    ASSERT_EQ(decoder.next(view),
              serve::FrameDecoder::Result::Frame);
    EXPECT_EQ(view.agentId, 2);
    EXPECT_EQ(view.obsCount(), obs.size());
}

TEST(ServeProtocol, CoalescedFramesPeelInOrder)
{
    std::vector<std::byte> wire;
    const std::vector<Real> obs = {0.5f};
    for (std::uint16_t agent = 0; agent < 3; ++agent)
        serve::encodeRequest(wire, agent, obs.data(), obs.size());
    // Plus the first half of a fourth frame.
    std::vector<std::byte> partial;
    serve::encodeRequest(partial, 9, obs.data(), obs.size());
    wire.insert(wire.end(), partial.begin(),
                partial.begin() + partial.size() / 2);

    serve::FrameDecoder decoder(serve::requestMagic, 1 << 20);
    decoder.feed(wire.data(), wire.size());
    serve::RequestView view;
    for (std::uint16_t agent = 0; agent < 3; ++agent) {
        ASSERT_EQ(decoder.next(view),
                  serve::FrameDecoder::Result::Frame);
        EXPECT_EQ(view.agentId, agent);
    }
    ASSERT_EQ(decoder.next(view),
              serve::FrameDecoder::Result::NeedMore);
    decoder.feed(partial.data() + partial.size() / 2,
                 partial.size() - partial.size() / 2);
    ASSERT_EQ(decoder.next(view),
              serve::FrameDecoder::Result::Frame);
    EXPECT_EQ(view.agentId, 9);
}

TEST(ServeProtocol, TruncatedHeaderNeedsMore)
{
    std::vector<std::byte> wire;
    const Real obs = 1.0f;
    serve::encodeRequest(wire, 0, &obs, 1);
    serve::FrameDecoder decoder(serve::requestMagic, 1 << 20);
    decoder.feed(wire.data(), serve::headerBytes - 3);
    serve::RequestView view;
    EXPECT_EQ(decoder.next(view),
              serve::FrameDecoder::Result::NeedMore);
    EXPECT_EQ(decoder.pendingBytes(), serve::headerBytes - 3);
}

TEST(ServeProtocol, BadMagicPoisonsTheStream)
{
    std::vector<std::byte> wire;
    const Real obs = 1.0f;
    serve::encodeRequest(wire, 0, &obs, 1);
    wire[0] = std::byte{0xff};

    serve::FrameDecoder decoder(serve::requestMagic, 1 << 20);
    decoder.feed(wire.data(), wire.size());
    serve::RequestView view;
    ASSERT_EQ(decoder.next(view),
              serve::FrameDecoder::Result::BadMagic);
    EXPECT_TRUE(serve::FrameDecoder::isError(
        serve::FrameDecoder::Result::BadMagic));

    // A valid frame fed afterwards cannot resurrect the stream.
    std::vector<std::byte> good;
    serve::encodeRequest(good, 1, &obs, 1);
    decoder.feed(good.data(), good.size());
    EXPECT_EQ(decoder.next(view),
              serve::FrameDecoder::Result::BadMagic);

    decoder.reset();
    decoder.feed(good.data(), good.size());
    EXPECT_EQ(decoder.next(view),
              serve::FrameDecoder::Result::Frame);
}

TEST(ServeProtocol, BadVersionRejected)
{
    std::vector<std::byte> wire;
    const Real obs = 1.0f;
    serve::encodeRequest(wire, 0, &obs, 1);
    wire[4] = std::byte{0x7f}; // Version 0x7f01 != 1.

    serve::FrameDecoder decoder(serve::requestMagic, 1 << 20);
    decoder.feed(wire.data(), wire.size());
    serve::RequestView view;
    EXPECT_EQ(decoder.next(view),
              serve::FrameDecoder::Result::BadVersion);
}

TEST(ServeProtocol, OversizedLengthPrefixRejected)
{
    std::vector<std::byte> wire;
    const std::vector<Real> obs(8, 1.0f);
    serve::encodeRequest(wire, 0, obs.data(), obs.size());

    // A decoder capped below the frame's payload refuses it from
    // the header alone: no amount of feeding unlocks it.
    serve::FrameDecoder decoder(serve::requestMagic, 16);
    decoder.feed(wire.data(), wire.size());
    serve::RequestView view;
    EXPECT_EQ(decoder.next(view),
              serve::FrameDecoder::Result::Oversized);
}

TEST(ServeProtocol, NonFloatMultipleLengthRejected)
{
    std::vector<std::byte> wire;
    const Real obs = 1.0f;
    serve::encodeRequest(wire, 0, &obs, 1);
    wire[8] = std::byte{3}; // Payload length 3: not float-aligned.

    serve::FrameDecoder decoder(serve::requestMagic, 1 << 20);
    decoder.feed(wire.data(), wire.size());
    serve::RequestView view;
    EXPECT_EQ(decoder.next(view),
              serve::FrameDecoder::Result::BadLength);
}

// ---------------------------------------------------------------
// Micro-batcher
// ---------------------------------------------------------------

TEST(ServeBatcher, GroupsByAgentAndPreservesArrivalOrder)
{
    auto trainer = makeTrainer(5);
    serve::ServePolicy policy;
    policy.adoptFrom(*trainer);

    serve::MicroBatcher batcher(8, 1000);
    Rng rng(3);
    // Interleaved agents: the flush groups rows per agent but must
    // answer in arrival order.
    const std::vector<std::uint16_t> agents = {1, 0, 2, 1, 0};
    std::vector<std::vector<Real>> observations;
    for (std::size_t i = 0; i < agents.size(); ++i) {
        observations.push_back(
            randomObs(policy.obsDim(agents[i]), rng));
        batcher.add(100 + i, agents[i], observations[i].data(),
                    observations[i].size(), 0);
    }
    EXPECT_EQ(batcher.size(), agents.size());

    std::vector<std::uint64_t> order;
    std::vector<std::vector<Real>> answers;
    batcher.flush(
        policy,
        [&](std::uint64_t conn_id, const Real *actions,
            std::size_t count, std::uint64_t, std::uint64_t) {
            order.push_back(conn_id);
            answers.emplace_back(actions, actions + count);
        },
        0);
    EXPECT_TRUE(batcher.empty());

    ASSERT_EQ(order.size(), agents.size());
    for (std::size_t i = 0; i < agents.size(); ++i) {
        EXPECT_EQ(order[i], 100 + i);
        const auto expected =
            localForward(policy, agents[i], observations[i]);
        ASSERT_EQ(answers[i].size(), expected.size());
        for (std::size_t k = 0; k < expected.size(); ++k)
            EXPECT_FLOAT_EQ(answers[i][k], expected[k]) << i;
    }
}

TEST(ServeBatcher, DeadlineAndWatermark)
{
    serve::MicroBatcher batcher(2, 100);
    EXPECT_FALSE(batcher.deadlineExpired(0));

    const Real obs = 1.0f;
    batcher.add(1, 0, &obs, 1, 1000);
    EXPECT_FALSE(batcher.full());
    EXPECT_FALSE(batcher.deadlineExpired(1000));
    EXPECT_TRUE(batcher.deadlineExpired(1000 + 100'000));

    batcher.add(2, 0, &obs, 1, 2000);
    EXPECT_TRUE(batcher.full());
}

// ---------------------------------------------------------------
// Loopback server
// ---------------------------------------------------------------

/** A live loopback server on an ephemeral port. */
struct ServerRig
{
    explicit ServerRig(serve::ServeConfig config = {},
                       std::uint64_t seed = 5)
    {
        trainer = makeTrainer(seed);
        policy.adoptFrom(*trainer);
        config.port = 0;
        server = std::make_unique<serve::Server>(policy, config);
        EXPECT_TRUE(server->start());
        loop = std::thread([this] { server->run(); });
    }

    ~ServerRig() { stopAndJoin(); }

    /** Stop the loop and join it; returns the milliseconds taken. */
    double
    stopAndJoin()
    {
        if (!loop.joinable())
            return 0;
        const std::uint64_t t0 = base::nowNsSinceStart();
        server->stop();
        loop.join();
        return static_cast<double>(base::nowNsSinceStart() - t0) *
               1e-6;
    }

    serve::BlockingClient
    connect()
    {
        serve::BlockingClient client;
        EXPECT_TRUE(
            client.connect("127.0.0.1", server->port(), 2000));
        return client;
    }

    std::unique_ptr<core::CtdeTrainerBase> trainer;
    serve::ServePolicy policy;
    std::unique_ptr<serve::Server> server;
    std::thread loop;
};

TEST(ServeServer, RoundTripMatchesLocalForward)
{
    ServerRig rig;
    auto client = rig.connect();

    Rng rng(9);
    std::vector<Real> actions;
    serve::Status status = serve::Status::Ok;
    for (std::uint16_t agent = 0; agent < kAgents; ++agent) {
        const auto obs = randomObs(rig.policy.obsDim(agent), rng);
        ASSERT_TRUE(client.request(agent, obs.data(), obs.size(),
                                   actions, status));
        EXPECT_EQ(status, serve::Status::Ok);
        const auto expected =
            localForward(rig.policy, agent, obs);
        ASSERT_EQ(actions.size(), expected.size());
        for (std::size_t k = 0; k < expected.size(); ++k)
            EXPECT_FLOAT_EQ(actions[k], expected[k]);
    }
}

TEST(ServeServer, SemanticErrorsAnsweredInBand)
{
    ServerRig rig;
    auto client = rig.connect();

    Rng rng(11);
    std::vector<Real> actions;
    serve::Status status = serve::Status::Ok;

    // Unknown agent: answered, connection stays up.
    const auto obs = randomObs(rig.policy.obsDim(0), rng);
    ASSERT_TRUE(client.request(63, obs.data(), obs.size(), actions,
                               status));
    EXPECT_EQ(status, serve::Status::BadAgent);
    EXPECT_TRUE(actions.empty());

    // Wrong observation width: same.
    ASSERT_TRUE(client.request(0, obs.data(), obs.size() - 1,
                               actions, status));
    EXPECT_EQ(status, serve::Status::BadObsDim);

    // The connection still serves valid requests afterwards.
    ASSERT_TRUE(client.request(0, obs.data(), obs.size(), actions,
                               status));
    EXPECT_EQ(status, serve::Status::Ok);
    EXPECT_EQ(actions.size(), rig.policy.actDim());
}

TEST(ServeServer, FramingViolationClosesOnlyThatConnection)
{
    ServerRig rig;
    auto good = rig.connect();
    auto bad = rig.connect();

    // Poison the bad client's stream with a wrong magic.
    std::vector<std::byte> garbage(serve::headerBytes + 4,
                                   std::byte{0xab});
    ASSERT_TRUE(bad.sendRaw(garbage.data(), garbage.size()));

    // The server answers BadFrame, then closes: the next read hits
    // EOF, surfaced as a failed response cycle.
    std::vector<Real> actions;
    serve::Status status = serve::Status::Ok;
    ASSERT_TRUE(bad.recvResponse(actions, status));
    EXPECT_EQ(status, serve::Status::BadFrame);
    EXPECT_FALSE(bad.recvResponse(actions, status));

    // The good client never notices.
    Rng rng(13);
    const auto obs = randomObs(rig.policy.obsDim(1), rng);
    ASSERT_TRUE(good.request(1, obs.data(), obs.size(), actions,
                             status));
    EXPECT_EQ(status, serve::Status::Ok);

    // Joined first: the loop must not be closing connections while
    // stats() reads them.
    rig.stopAndJoin();
    const serve::ServeStats stats = rig.server->stats();
    EXPECT_EQ(stats.protocolErrors, 1u);
}

TEST(ServeServer, ManyClientsBatchedConcurrently)
{
    serve::ServeConfig config;
    config.batchMax = 8;
    config.batchDeadlineUs = 100;
    ServerRig rig(config);

    constexpr std::size_t kClients = 4;
    constexpr std::size_t kRequests = 50;
    std::vector<std::thread> threads;
    std::vector<int> failures(kClients, 0);
    for (std::size_t c = 0; c < kClients; ++c) {
        threads.emplace_back([&, c] {
            serve::BlockingClient client;
            if (!client.connect("127.0.0.1", rig.server->port(),
                                2000)) {
                failures[c] = 1;
                return;
            }
            Rng rng(100 + c);
            std::vector<Real> actions;
            serve::Status status = serve::Status::Ok;
            for (std::size_t i = 0; i < kRequests; ++i) {
                const auto agent =
                    static_cast<std::uint16_t>(i % kAgents);
                const auto obs =
                    randomObs(rig.policy.obsDim(agent), rng);
                if (!client.request(agent, obs.data(), obs.size(),
                                    actions, status) ||
                    status != serve::Status::Ok ||
                    actions.size() != rig.policy.actDim()) {
                    failures[c] = 1;
                    return;
                }
            }
        });
    }
    for (auto &t : threads)
        t.join();
    for (std::size_t c = 0; c < kClients; ++c)
        EXPECT_EQ(failures[c], 0) << "client " << c;

    // The clients have closed; join the loop before stats() so it is
    // not still handling their EOFs.
    rig.stopAndJoin();
    const serve::ServeStats stats = rig.server->stats();
    EXPECT_EQ(stats.responses, kClients * kRequests);
    EXPECT_EQ(stats.protocolErrors, 0u);
    // Coalescing happened at least once: fewer flushes than
    // requests would be flaky to assert tightly, but the batch
    // count can never exceed the response count.
    EXPECT_LE(stats.batches, stats.responses);
}

TEST(ServeServer, HotReloadSwapsWeightsWithoutDroppingConnections)
{
    ServerRig rig;
    auto fresh = makeTrainer(99); // Different seed, same shapes.
    int hook_calls = 0;
    rig.server->setReloadHook([&](bool forced) {
        EXPECT_TRUE(forced);
        ++hook_calls;
        rig.policy.adoptFrom(*fresh);
        return true;
    });

    auto client = rig.connect();
    Rng rng(21);
    const auto obs = randomObs(rig.policy.obsDim(0), rng);
    std::vector<Real> actions;
    serve::Status status = serve::Status::Ok;
    ASSERT_TRUE(client.request(0, obs.data(), obs.size(), actions,
                               status));
    const std::vector<Real> before = actions;

    rig.server->requestReload();
    // The same connection keeps serving across the swap; the swap
    // lands before the response to a later request.
    serve::ServePolicy expected;
    expected.adoptFrom(*fresh);
    const auto want = localForward(expected, 0, obs);
    for (int i = 0; i < 200; ++i) {
        ASSERT_TRUE(client.request(0, obs.data(), obs.size(),
                                   actions, status));
        ASSERT_EQ(status, serve::Status::Ok);
        if (actions == want)
            break;
    }
    EXPECT_EQ(actions, want);
    EXPECT_NE(actions, before);
    EXPECT_EQ(hook_calls, 1);
    EXPECT_EQ(rig.server->stats().reloads, 1u);
    EXPECT_EQ(rig.server->stats().eofs, 0u);
}

TEST(ServeServer, PollBackendServes)
{
    serve::ServeConfig config;
    config.poller = serve::PollerKind::Poll;
    ServerRig rig(config);
    EXPECT_STREQ(rig.server->backendName(), "poll");

    auto client = rig.connect();
    Rng rng(31);
    const auto obs = randomObs(rig.policy.obsDim(0), rng);
    std::vector<Real> actions;
    serve::Status status = serve::Status::Ok;
    ASSERT_TRUE(client.request(0, obs.data(), obs.size(), actions,
                               status));
    EXPECT_EQ(status, serve::Status::Ok);
}

TEST(ServeServer, StopWakesAnIdleLoopPromptly)
{
    // An idle loop blocks in its poller for 50 ms at a time. Stopped
    // 5 ms into that wait, a loop nobody wakes makes the join wait
    // out the other 45 ms; a woken one exits at once. The 20 ms bound
    // leaves room for a thread that is runnable but not yet scheduled
    // on a host loaded by a parallel test run.
    for (serve::PollerKind kind :
         {serve::PollerKind::Auto, serve::PollerKind::Poll}) {
        for (int cycle = 0; cycle < 5; ++cycle) {
            serve::ServeConfig config;
            config.poller = kind;
            ServerRig rig(config);
            std::this_thread::sleep_for(std::chrono::milliseconds(5));
            EXPECT_LT(rig.stopAndJoin(), 20.0)
                << rig.server->backendName() << " cycle " << cycle;
        }
    }
}

TEST(ServeServer, LoneRequestDoesNotWaitForTheDeadline)
{
    // A lone request is answered on the loop's next idle turn, not
    // when the deadline runs out: five in a row take microseconds
    // each, where waiting out a 1 s deadline would take 5 s.
    serve::ServeConfig config;
    config.batchDeadlineUs = 1'000'000;
    ServerRig rig(config);
    auto client = rig.connect();

    Rng rng(41);
    const auto obs = randomObs(rig.policy.obsDim(0), rng);
    std::vector<Real> actions;
    serve::Status status = serve::Status::Ok;
    const std::uint64_t t0 = base::nowNsSinceStart();
    for (int i = 0; i < 5; ++i) {
        ASSERT_TRUE(client.request(0, obs.data(), obs.size(),
                                   actions, status));
        EXPECT_EQ(status, serve::Status::Ok);
    }
    EXPECT_LT(static_cast<double>(base::nowNsSinceStart() - t0) *
                  1e-6,
              500.0);
}

TEST(ServeServer, RequestsInOneReadShareOneFlush)
{
    serve::ServeConfig config;
    config.batchMax = 32;
    config.batchDeadlineUs = 1'000'000;
    ServerRig rig(config);
    auto client = rig.connect();

    // One answered request first, so stats() is read after the
    // server has accepted the connection and finished that flush.
    Rng rng(43);
    std::vector<Real> actions;
    serve::Status status = serve::Status::Ok;
    const auto warm = randomObs(rig.policy.obsDim(0), rng);
    ASSERT_TRUE(client.request(0, warm.data(), warm.size(), actions,
                               status));
    const std::uint64_t batches = rig.server->stats().batches;

    // Eight frames in one send arrive in one read: the turn that
    // enqueues them has events, the next poll finds none, and that
    // turn flushes all eight together.
    constexpr std::size_t kFrames = 8;
    std::vector<std::byte> wire;
    std::vector<std::uint16_t> agents;
    std::vector<std::vector<Real>> observations;
    for (std::size_t i = 0; i < kFrames; ++i) {
        agents.push_back(static_cast<std::uint16_t>(i % kAgents));
        observations.push_back(
            randomObs(rig.policy.obsDim(agents[i]), rng));
        serve::encodeRequest(wire, agents[i], observations[i].data(),
                             observations[i].size());
    }
    ASSERT_TRUE(client.sendRaw(wire.data(), wire.size()));
    for (std::size_t i = 0; i < kFrames; ++i) {
        ASSERT_TRUE(client.recvResponse(actions, status));
        ASSERT_EQ(status, serve::Status::Ok);
        const auto expected =
            localForward(rig.policy, agents[i], observations[i]);
        ASSERT_EQ(actions.size(), expected.size());
        for (std::size_t k = 0; k < expected.size(); ++k)
            EXPECT_FLOAT_EQ(actions[k], expected[k]) << i;
    }
    // Joined first, so stats() does not race the loop.
    rig.stopAndJoin();
    EXPECT_EQ(rig.server->stats().batches, batches + 1);
}

TEST(ServeServer, IdleLoopSleeps)
{
    // After a flush the loop polls without blocking for one deadline,
    // then sleeps. Two deadlines after the last response, 200 ms
    // with no traffic must cost the loop thread almost no CPU; a
    // loop that kept polling would burn most of those 200 ms.
    serve::ServeConfig config;
    config.batchDeadlineUs = 5'000;
    ServerRig rig(config);
    auto client = rig.connect();

    Rng rng(47);
    const auto obs = randomObs(rig.policy.obsDim(0), rng);
    std::vector<Real> actions;
    serve::Status status = serve::Status::Ok;
    ASSERT_TRUE(client.request(0, obs.data(), obs.size(), actions,
                               status));
    std::this_thread::sleep_for(std::chrono::milliseconds(10));

    clockid_t loop_clock = 0;
    ASSERT_EQ(::pthread_getcpuclockid(rig.loop.native_handle(),
                                      &loop_clock),
              0);
    const auto cpu_ms = [loop_clock] {
        struct timespec ts{};
        ::clock_gettime(loop_clock, &ts);
        return static_cast<double>(ts.tv_sec) * 1e3 +
               static_cast<double>(ts.tv_nsec) * 1e-6;
    };
    const double before = cpu_ms();
    std::this_thread::sleep_for(std::chrono::milliseconds(200));
    EXPECT_LT(cpu_ms() - before, 20.0);
}

// ---------------------------------------------------------------
// Checkpoint reload
// ---------------------------------------------------------------

TEST(ServeReload, LoadNowRestoresCheckpointedWeights)
{
    const std::string dir = freshDir("serve_reload_load");
    auto trained = makeTrainer(42);
    core::RunState save;
    save.trainer = trained.get();
    ASSERT_TRUE(core::saveRotating(dir, save));

    // A differently seeded shell: loadNow must overwrite it.
    auto shell = makeTrainer(43);
    serve::ServePolicy policy;
    serve::CheckpointReloader reloader(dir, *shell, policy);
    ASSERT_TRUE(reloader.loadNow());
    EXPECT_EQ(policy.version(), 1u);

    serve::ServePolicy expected;
    expected.adoptFrom(*trained);
    Rng rng(1);
    const auto obs = randomObs(expected.obsDim(0), rng);
    EXPECT_EQ(localForward(policy, 0, obs),
              localForward(expected, 0, obs));
}

TEST(ServeReload, PollTickSkipsUnchangedAndPicksUpRotation)
{
    const std::string dir = freshDir("serve_reload_poll");
    auto first = makeTrainer(42);
    core::RunState save;
    save.trainer = first.get();
    ASSERT_TRUE(core::saveRotating(dir, save));

    auto shell = makeTrainer(43);
    serve::ServePolicy policy;
    serve::CheckpointReloader reloader(dir, *shell, policy);
    ASSERT_TRUE(reloader.loadNow());

    // Unchanged rotation: an unforced tick is a no-op.
    EXPECT_FALSE(reloader.maybeReload(false));
    EXPECT_EQ(reloader.reloads(), 0u);

    // A new rotation lands; the next tick picks it up.
    auto second = makeTrainer(77);
    save.trainer = second.get();
    ASSERT_TRUE(core::saveRotating(dir, save));
    EXPECT_TRUE(reloader.maybeReload(false));
    EXPECT_EQ(reloader.reloads(), 1u);

    serve::ServePolicy expected;
    expected.adoptFrom(*second);
    Rng rng(2);
    const auto obs = randomObs(expected.obsDim(0), rng);
    EXPECT_EQ(localForward(policy, 0, obs),
              localForward(expected, 0, obs));
}

TEST(ServeReload, FailedReloadKeepsCurrentWeights)
{
    const std::string dir = freshDir("serve_reload_fail");
    auto trained = makeTrainer(42);
    core::RunState save;
    save.trainer = trained.get();
    ASSERT_TRUE(core::saveRotating(dir, save));

    auto shell = makeTrainer(43);
    serve::ServePolicy policy;
    serve::CheckpointReloader reloader(dir, *shell, policy);
    ASSERT_TRUE(reloader.loadNow());

    serve::ServePolicy expected;
    expected.adoptFrom(*trained);

    // Corrupt both generations; a forced reload fails and the
    // served weights stay what they were.
    for (const auto &path :
         {core::latestCheckpointPath(dir),
          core::previousCheckpointPath(dir)}) {
        std::ofstream os(path, std::ios::binary | std::ios::trunc);
        os << "not a checkpoint";
    }
    EXPECT_FALSE(reloader.maybeReload(true));
    EXPECT_EQ(reloader.reloads(), 0u);

    Rng rng(3);
    const auto obs = randomObs(expected.obsDim(0), rng);
    EXPECT_EQ(localForward(policy, 0, obs),
              localForward(expected, 0, obs));
}

} // namespace

/**
 * @file
 * Crash-safety tests for the full-state checkpoint runtime: v2
 * round trips, refused v1 files, kill/resume bit-identity (the
 * headline contract: a run killed at a seeded random step and
 * resumed from disk reproduces the uninterrupted run's episode
 * rewards exactly, at any thread count), CRC fallback from a
 * corrupted latest to previous, failed-write rotation safety, a
 * fatal refusal to resume from an unusable checkpoint, and the
 * numeric health-guard policies.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <limits>
#include <memory>
#include <sstream>

#include "marlin/base/serialize.hh"
#include "marlin/marlin.hh"
#include "marlin/replay/gather.hh"

namespace marlin
{
namespace
{

std::vector<std::size_t>
dimsOf(const env::Environment &environment)
{
    std::vector<std::size_t> dims;
    for (std::size_t i = 0; i < environment.numAgents(); ++i)
        dims.push_back(environment.obsDim(i));
    return dims;
}

enum class Which { Maddpg, Matd3Interleaved };

core::TrainConfig
rigConfig(Which which)
{
    core::TrainConfig c;
    c.batchSize = 32;
    c.bufferCapacity = 4096;
    c.warmupTransitions = 64;
    c.updateEvery = 20;
    c.hiddenDims = {16, 16};
    c.seed = 21;
    if (which == Which::Matd3Interleaved)
        c.backend = core::SamplingBackend::Sharded;
    return c;
}

/** Everything one training run needs, in destruction-safe order. */
struct Rig
{
    std::unique_ptr<env::Environment> environment;
    std::unique_ptr<core::CtdeTrainerBase> trainer;
    std::unique_ptr<core::TrainLoop> loop;
};

Rig
makeRig(Which which, core::TrainConfig config,
        std::size_t agents = 3, std::uint64_t env_seed = 77)
{
    Rig rig;
    rig.environment =
        env::makeCooperativeNavigationEnv(agents, env_seed);
    const auto dims = dimsOf(*rig.environment);
    const std::size_t act_dim = rig.environment->actionDim();
    if (which == Which::Maddpg) {
        rig.trainer = std::make_unique<core::MaddpgTrainer>(
            dims, act_dim, config,
            [] { return std::make_unique<replay::UniformSampler>(); });
    } else {
        // MATD3 + interleaved (record-major, SHRD section) layout +
        // prioritized sampler: the most state-rich configuration
        // (twin critics, policy-delay counters, sum-tree priorities,
        // joint records) all have to survive the round trip.
        const BufferIndex capacity = config.bufferCapacity;
        rig.trainer = std::make_unique<core::Matd3Trainer>(
            dims, act_dim, config, [capacity] {
                replay::PerConfig per;
                per.capacity = capacity;
                return std::make_unique<replay::PrioritizedSampler>(
                    per);
            });
    }
    rig.loop = std::make_unique<core::TrainLoop>(
        *rig.environment, *rig.trainer, config);
    return rig;
}

std::string
freshDir(const std::string &name)
{
    const std::string dir = ::testing::TempDir() + "marlin_" + name;
    std::filesystem::remove_all(dir);
    std::filesystem::create_directories(dir);
    return dir;
}

std::string
readFileBytes(const std::string &path)
{
    std::ifstream is(path, std::ios::binary);
    std::ostringstream ss;
    ss << is.rdbuf();
    return ss.str();
}

std::vector<std::vector<Real>>
probeObservations(const env::Environment &environment)
{
    std::vector<std::vector<Real>> obs;
    for (std::size_t i = 0; i < environment.numAgents(); ++i) {
        std::vector<Real> o(environment.obsDim(i));
        for (std::size_t k = 0; k < o.size(); ++k)
            o[k] = Real(0.1) * static_cast<Real>(k + i);
        obs.push_back(std::move(o));
    }
    return obs;
}

void
poisonCritic(core::CtdeTrainerBase &trainer)
{
    auto params = trainer.networks(0).critic.params();
    ASSERT_FALSE(params.empty());
    params[0]->value.data()[0] =
        std::numeric_limits<Real>::quiet_NaN();
}

/**
 * The acceptance contract: baseline an uninterrupted run, replay it
 * with a seeded random kill + rotating checkpoints, resume in fresh
 * objects, and demand bit-identical episode rewards. The baseline
 * runs on 1 thread and the killed/resumed runs on 4, so the test
 * simultaneously pins thread-count invariance across process death.
 */
void
killResumeBitIdentical(Which which, const char *dir_name)
{
    const std::size_t episodes = 12;

    base::ThreadPool::setGlobalThreads(1);
    std::vector<Real> baseline;
    {
        Rig rig = makeRig(which, rigConfig(which));
        baseline = rig.loop->run(episodes).episodeRewards;
    }
    ASSERT_EQ(baseline.size(), episodes);

    const std::string dir = freshDir(dir_name);
    core::CheckpointOptions opts;
    opts.dir = dir;
    opts.everyEpisodes = 2;

    base::ThreadPool::setGlobalThreads(4);
    // Earliest kill lands after the first rotation (2 episodes =
    // 50 steps); latest leaves episodes still to run on resume.
    Rng kill_rng(0xfeedbeef);
    const StepCount kill_step = 60 + kill_rng.randint(250 - 60 + 1);
    base::FaultInjector injector;
    injector.armKillAtStep(kill_step);
    {
        Rig rig = makeRig(which, rigConfig(which));
        rig.loop->setCheckpointing(opts);
        rig.loop->setFaultInjector(&injector);
        const auto killed = rig.loop->run(episodes);
        ASSERT_TRUE(killed.killed) << "kill step " << kill_step;
        ASSERT_LT(killed.episodeRewards.size(), episodes);
        // The dead process's objects are simply abandoned here: all
        // that survives, as after a real SIGKILL, is the disk.
    }
    {
        Rig rig = makeRig(which, rigConfig(which));
        rig.loop->setCheckpointing(opts);
        const auto resumed = rig.loop->run(episodes);
        EXPECT_FALSE(resumed.killed);
        EXPECT_GT(resumed.resumedFromEpisode, 0u);
        ASSERT_EQ(resumed.episodeRewards.size(), episodes);
        for (std::size_t i = 0; i < episodes; ++i) {
            EXPECT_EQ(resumed.episodeRewards[i], baseline[i])
                << "episode " << i << " diverged after resume "
                << "(killed at step " << kill_step << ")";
        }
    }
    base::ThreadPool::setGlobalThreads(0);
}

TEST(Checkpoint, KillResumeBitIdenticalMaddpg)
{
    killResumeBitIdentical(Which::Maddpg, "kill_maddpg");
}

TEST(Checkpoint, KillResumeBitIdenticalMatd3Interleaved)
{
    killResumeBitIdentical(Which::Matd3Interleaved, "kill_matd3");
}

TEST(Checkpoint, CorruptLatestFallsBackToPrevious)
{
    const std::size_t episodes = 8;
    std::vector<Real> baseline;
    {
        Rig rig = makeRig(Which::Maddpg, rigConfig(Which::Maddpg));
        baseline = rig.loop->run(episodes).episodeRewards;
    }

    const std::string dir = freshDir("corrupt_latest");
    core::CheckpointOptions opts;
    opts.dir = dir;
    opts.everyEpisodes = 1;
    {
        Rig rig = makeRig(Which::Maddpg, rigConfig(Which::Maddpg));
        rig.loop->setCheckpointing(opts);
        rig.loop->run(6); // latest = episode 6, previous = episode 5
    }

    // Flip one byte inside the network section of latest.
    const std::string latest = core::latestCheckpointPath(dir);
    ASSERT_TRUE(base::corruptFileByte(latest, 300));

    // The CRC catches the corruption...
    {
        Rig probe = makeRig(Which::Maddpg, rigConfig(Which::Maddpg));
        core::RunState st;
        st.trainer = probe.trainer.get();
        const auto r = core::loadRunFile(latest, st);
        ASSERT_FALSE(r);
        EXPECT_EQ(r.error, core::CkptError::CrcMismatch);
    }

    // ...and resume falls back to previous (episode 5) without
    // aborting, then finishes bit-identically to the baseline.
    {
        Rig rig = makeRig(Which::Maddpg, rigConfig(Which::Maddpg));
        rig.loop->setCheckpointing(opts);
        const auto resumed = rig.loop->run(episodes);
        EXPECT_EQ(resumed.resumedFromEpisode, 5u);
        ASSERT_EQ(resumed.episodeRewards.size(), episodes);
        for (std::size_t i = 0; i < episodes; ++i)
            EXPECT_EQ(resumed.episodeRewards[i], baseline[i])
                << "episode " << i;
    }
}

TEST(Checkpoint, FailedWriteLeavesRotationIntact)
{
    const std::string dir = freshDir("failed_write");
    core::CheckpointOptions opts;
    opts.dir = dir;
    opts.everyEpisodes = 1;
    Rig rig = makeRig(Which::Maddpg, rigConfig(Which::Maddpg));
    rig.loop->setCheckpointing(opts);
    rig.loop->run(3);

    const std::string latest = core::latestCheckpointPath(dir);
    const std::string previous = core::previousCheckpointPath(dir);
    const std::string latest_before = readFileBytes(latest);
    const std::string previous_before = readFileBytes(previous);
    ASSERT_FALSE(latest_before.empty());
    ASSERT_FALSE(previous_before.empty());

    base::FaultInjector injector;
    injector.armFailAtWrite(1);
    core::RunState st;
    st.trainer = rig.trainer.get();
    const auto r = core::saveRotating(dir, st, &injector);
    ASSERT_FALSE(r);
    EXPECT_EQ(r.error, core::CkptError::IoError);

    // The torn temp file must not have touched either generation.
    EXPECT_EQ(readFileBytes(latest), latest_before);
    EXPECT_EQ(readFileBytes(previous), previous_before);
}

TEST(Checkpoint, V2RoundTripRestoresNetworksAndRuntime)
{
    Rig a = makeRig(Which::Maddpg, rigConfig(Which::Maddpg));
    a.loop->run(5);

    std::ostringstream os;
    core::RunState save_state;
    save_state.trainer = a.trainer.get();
    core::saveRun(os, save_state);

    auto other = rigConfig(Which::Maddpg);
    other.seed = 99; // Different weights until the load.
    Rig b = makeRig(Which::Maddpg, other);

    std::istringstream is(os.str());
    core::RunState load_state;
    load_state.trainer = b.trainer.get();
    const auto r = core::loadRun(is, load_state);
    ASSERT_TRUE(r) << r.detail;
    EXPECT_EQ(r.version, core::checkpointVersion);

    const auto obs = probeObservations(*a.environment);
    EXPECT_EQ(a.trainer->greedyActions(obs),
              b.trainer->greedyActions(obs));
    EXPECT_EQ(a.trainer->updateCount(), b.trainer->updateCount());
}

TEST(Checkpoint, V1FilesAreRejectedAsBadVersion)
{
    // A version-1 (networks-only) header: magic, version 1, then the
    // algorithm tag that format carried. Only version 2 is read.
    std::ostringstream os;
    writePod<std::uint32_t>(os, core::checkpointMagic);
    writePod<std::uint32_t>(os, 1);
    writeString(os, "maddpg");

    Rig b = makeRig(Which::Maddpg, rigConfig(Which::Maddpg));
    const auto obs = probeObservations(*b.environment);
    const auto before = b.trainer->greedyActions(obs);
    std::istringstream is(os.str());
    core::RunState st;
    st.trainer = b.trainer.get();
    const auto r = core::loadRun(is, st);
    ASSERT_FALSE(r);
    EXPECT_EQ(r.error, core::CkptError::BadVersion);
    EXPECT_EQ(r.version, 1u);
    EXPECT_EQ(b.trainer->greedyActions(obs), before);
}

TEST(Checkpoint, TrainerOnlyFileRefusesFullResume)
{
    Rig a = makeRig(Which::Maddpg, rigConfig(Which::Maddpg));
    std::ostringstream os;
    core::RunState save_state;
    save_state.trainer = a.trainer.get();
    core::saveRun(os, save_state); // No LOOP section written.

    Rig b = makeRig(Which::Maddpg, rigConfig(Which::Maddpg));
    core::LoopProgress progress;
    core::RunState st;
    st.trainer = b.trainer.get();
    st.progress = &progress;
    std::istringstream is(os.str());
    const auto r = core::loadRun(is, st);
    ASSERT_FALSE(r);
    EXPECT_EQ(r.error, core::CkptError::MissingSection);
}

TEST(Checkpoint, AgentCountMismatchIsAShapeError)
{
    Rig a = makeRig(Which::Maddpg, rigConfig(Which::Maddpg), 3);
    std::ostringstream os;
    core::RunState save_state;
    save_state.trainer = a.trainer.get();
    core::saveRun(os, save_state);

    Rig b = makeRig(Which::Maddpg, rigConfig(Which::Maddpg), 4);
    core::RunState st;
    st.trainer = b.trainer.get();
    std::istringstream is(os.str());
    const auto r = core::loadRun(is, st);
    ASSERT_FALSE(r);
    EXPECT_EQ(r.error, core::CkptError::ShapeMismatch);
}

/** Build a replay buffer matching a rig's trainer geometry. */
std::vector<replay::TransitionShape>
rigShapes(const Rig &rig, BufferIndex /*capacity*/)
{
    std::vector<replay::TransitionShape> shapes;
    for (std::size_t i = 0; i < rig.environment->numAgents(); ++i)
        shapes.push_back({rig.environment->obsDim(i),
                          rig.environment->actionDim()});
    return shapes;
}

TEST(Checkpoint, ReplayCapacityMismatchIsATypedShapeError)
{
    Rig a = makeRig(Which::Maddpg, rigConfig(Which::Maddpg));
    replay::MultiAgentBuffer saved(rigShapes(a, 0), 4096);
    std::ostringstream os;
    core::RunState save_state;
    save_state.trainer = a.trainer.get();
    save_state.replay = &saved;
    core::saveRun(os, save_state);

    // Same shapes, half the capacity: the META gate must reject it
    // with the typed error before any section is restored.
    Rig b = makeRig(Which::Maddpg, rigConfig(Which::Maddpg));
    replay::MultiAgentBuffer smaller(rigShapes(b, 0), 2048);
    core::RunState st;
    st.trainer = b.trainer.get();
    st.replay = &smaller;
    std::istringstream is(os.str());
    const auto r = core::loadRun(is, st);
    ASSERT_FALSE(r);
    EXPECT_EQ(r.error, core::CkptError::ShapeMismatch);
    EXPECT_NE(r.detail.find("replay capacity"), std::string::npos)
        << r.detail;
    EXPECT_EQ(smaller.size(), 0u) << "failed load must not mutate";
}

/**
 * A checkpoint whose stored replay capacity was rewritten in place
 * (section CRC recomputed, so the corruption is semantically valid
 * bytes) must fail the capacity gate as a ShapeMismatch — not decay
 * into a CRC error, and never partially restore.
 */
TEST(Checkpoint, CorruptCapacityFieldFailsTheGateNotTheRestore)
{
    Rig a = makeRig(Which::Maddpg, rigConfig(Which::Maddpg));
    replay::MultiAgentBuffer saved(rigShapes(a, 0), 4096);
    std::ostringstream os;
    core::RunState save_state;
    save_state.trainer = a.trainer.get();
    save_state.replay = &saved;
    core::saveRun(os, save_state);
    std::string image = os.str();

    // Walk the section chain to the META payload; its final u64 is
    // the replay capacity. Rewrite it and recompute the section CRC.
    const std::uint32_t tag_meta =
        static_cast<std::uint32_t>('M') |
        (static_cast<std::uint32_t>('E') << 8) |
        (static_cast<std::uint32_t>('T') << 16) |
        (static_cast<std::uint32_t>('A') << 24);
    std::size_t off = 8; // File magic + version.
    bool patched = false;
    while (off + 12 <= image.size()) {
        std::uint32_t tag = 0;
        std::uint64_t len = 0;
        std::memcpy(&tag, image.data() + off, 4);
        std::memcpy(&len, image.data() + off + 4, 8);
        const std::size_t payload = off + 12;
        if (tag == tag_meta) {
            ASSERT_GE(len, 8u);
            const std::uint64_t bogus = 12345;
            std::memcpy(image.data() + payload + len - 8, &bogus, 8);
            const std::uint32_t crc =
                crc32(image.data() + payload, len);
            std::memcpy(image.data() + payload + len, &crc, 4);
            patched = true;
            break;
        }
        off = payload + len + 4;
    }
    ASSERT_TRUE(patched) << "META section not found";

    Rig b = makeRig(Which::Maddpg, rigConfig(Which::Maddpg));
    replay::MultiAgentBuffer buffers(rigShapes(b, 0), 4096);
    core::RunState st;
    st.trainer = b.trainer.get();
    st.replay = &buffers;
    std::istringstream is(image);
    const auto r = core::loadRun(is, st);
    ASSERT_FALSE(r);
    EXPECT_EQ(r.error, core::CkptError::ShapeMismatch) << r.detail;
    EXPECT_NE(r.detail.find("12345"), std::string::npos) << r.detail;
    EXPECT_EQ(buffers.size(), 0u);
}

TEST(Checkpoint, ShardedStoreRoundTripsThroughShrdSection)
{
    Rig a = makeRig(Which::Maddpg, rigConfig(Which::Maddpg));
    replay::ShardedStoreConfig cfg;
    cfg.shards = 2;
    replay::ShardedStore store_a(rigShapes(a, 0), 4096, cfg);
    {
        std::vector<std::vector<Real>> obs, act, next;
        std::vector<Real> rew;
        std::vector<bool> done;
        for (std::size_t i = 0; i < store_a.numAgents(); ++i) {
            const auto &shape = store_a.agentShape(i);
            obs.emplace_back(shape.obsDim, Real(0.25));
            act.emplace_back(shape.actDim, Real(0.5));
            next.emplace_back(shape.obsDim, Real(0.75));
            rew.push_back(Real(1));
            done.push_back(false);
        }
        for (int t = 0; t < 100; ++t) {
            rew[0] = static_cast<Real>(t);
            store_a.append(obs, act, rew, next, done);
        }
    }

    std::ostringstream os;
    core::RunState save_state;
    save_state.trainer = a.trainer.get();
    save_state.replay = &store_a;
    core::saveRun(os, save_state);

    auto other = rigConfig(Which::Maddpg);
    other.seed = 99;
    Rig b = makeRig(Which::Maddpg, other);
    replay::ShardedStore store_b(rigShapes(b, 0), 4096, cfg);
    core::RunState st;
    st.trainer = b.trainer.get();
    st.replay = &store_b;
    std::istringstream is(os.str());
    const auto r = core::loadRun(is, st);
    ASSERT_TRUE(r) << r.detail;

    ASSERT_EQ(store_b.size(), store_a.size());
    replay::IndexPlan plan;
    for (BufferIndex i = 0; i < store_a.size(); ++i)
        plan.indices.push_back(i);
    plan.weights.assign(plan.indices.size(), Real(1));
    std::vector<replay::AgentBatch> batch_a, batch_b;
    store_a.gatherAll(plan, batch_a);
    store_b.gatherAll(plan, batch_b);
    for (std::size_t i = 0; i < batch_a.size(); ++i)
        for (std::size_t k = 0; k < batch_a[i].rewards.size(); ++k)
            ASSERT_EQ(batch_a[i].rewards.data()[k],
                      batch_b[i].rewards.data()[k])
                << "agent " << i << " row " << k;
}

TEST(Checkpoint, ResumeOnEmptyDirectoryStartsFresh)
{
    const std::string dir = freshDir("fresh_start");
    Rig rig = makeRig(Which::Maddpg, rigConfig(Which::Maddpg));
    core::CheckpointOptions opts;
    opts.dir = dir;
    opts.everyEpisodes = 2;
    rig.loop->setCheckpointing(opts);
    const auto r = rig.loop->run(4);
    EXPECT_EQ(r.resumedFromEpisode, 0u);
    EXPECT_EQ(r.episodeRewards.size(), 4u);
    // And the run left loadable snapshots behind.
    Rig probe = makeRig(Which::Maddpg, rigConfig(Which::Maddpg));
    core::RunState st;
    st.trainer = probe.trainer.get();
    EXPECT_TRUE(
        core::loadRunFile(core::latestCheckpointPath(dir), st));
}

/** Leave a two-generation MADDPG rotation (@p agents agents) in @p dir. */
void
writeRotation(const std::string &dir, std::size_t agents = 3)
{
    // The training pool's threads do not survive a plain fork(); the
    // threadsafe style re-runs the test in a fresh process instead.
    ::testing::GTEST_FLAG(death_test_style) = "threadsafe";
    Rig rig = makeRig(Which::Maddpg, rigConfig(Which::Maddpg), agents);
    core::CheckpointOptions opts;
    opts.dir = dir;
    opts.everyEpisodes = 1;
    rig.loop->setCheckpointing(opts);
    rig.loop->run(2);
}

/**
 * Resuming training from a checkpoint it cannot use is fatal: the
 * loop refuses to train on, or its next rotation would overwrite the
 * only copy of the run it was asked to continue.
 */
TEST(CheckpointDeath, AlgorithmMismatchDies)
{
    const std::string dir = freshDir("death_algo");
    writeRotation(dir);

    // MATD3 on the writer's replay backend, so every section is
    // present and the META algorithm gate is what refuses the file.
    Rig rig = makeRig(Which::Matd3Interleaved, rigConfig(Which::Maddpg));
    core::CheckpointOptions opts;
    opts.dir = dir;
    rig.loop->setCheckpointing(opts);
    EXPECT_EXIT(rig.loop->run(4), ::testing::ExitedWithCode(1),
                "algo-mismatch: checkpoint was written by 'maddpg'");
}

TEST(CheckpointDeath, AgentCountMismatchDies)
{
    const std::string dir = freshDir("death_agents");
    writeRotation(dir, 3);

    Rig rig = makeRig(Which::Maddpg, rigConfig(Which::Maddpg), 4);
    core::CheckpointOptions opts;
    opts.dir = dir;
    rig.loop->setCheckpointing(opts);
    EXPECT_EXIT(rig.loop->run(4), ::testing::ExitedWithCode(1),
                "shape-mismatch");
}

/**
 * A missing latest.ckpt alone is not a fresh start: when previous.ckpt
 * survives but does not load, the resume dies instead of training over
 * it.
 */
TEST(CheckpointDeath, MissingFileDies)
{
    const std::string dir = freshDir("death_missing");
    writeRotation(dir);
    ASSERT_TRUE(
        std::filesystem::remove(core::latestCheckpointPath(dir)));
    ASSERT_TRUE(
        base::corruptFileByte(core::previousCheckpointPath(dir), 300));

    Rig rig = makeRig(Which::Maddpg, rigConfig(Which::Maddpg));
    core::CheckpointOptions opts;
    opts.dir = dir;
    rig.loop->setCheckpointing(opts);
    EXPECT_EXIT(rig.loop->run(4), ::testing::ExitedWithCode(1),
                "no usable checkpoint .*crc-mismatch");
}

TEST(FaultInjector, KillFiresAtTheArmedStep)
{
    base::FaultInjector injector;
    injector.armKillAtStep(5);
    for (int i = 1; i < 5; ++i)
        EXPECT_FALSE(injector.onStep()) << "step " << i;
    EXPECT_TRUE(injector.onStep());
}

TEST(FaultInjector, FailpointStreambufFailsKthWriteAndStaysDead)
{
    std::ostringstream sink;
    base::FaultInjector injector;
    injector.armFailAtWrite(3);
    base::FailpointStreambuf guard(sink.rdbuf(), &injector);
    std::ostream os(&guard);

    os << "aa";
    os << "bb";
    EXPECT_TRUE(os.good());
    os << "cc"; // Third write: injected failure.
    EXPECT_FALSE(os.good());
    os.clear();
    os << "dd"; // Sticky: the stream stays dead.
    EXPECT_FALSE(os.good());
    EXPECT_EQ(sink.str(), "aabb");
}

TEST(FaultInjector, CorruptFileByteFlipsExactlyOneByte)
{
    const std::string path =
        ::testing::TempDir() + "marlin_corrupt_unit.bin";
    {
        std::ofstream os(path, std::ios::binary);
        os << "hello";
    }
    ASSERT_TRUE(base::corruptFileByte(path, 1, 0x01));
    EXPECT_EQ(readFileBytes(path), "hdllo"); // 'e' ^ 0x01 = 'd'
    EXPECT_FALSE(base::corruptFileByte(path, 99));
    std::filesystem::remove(path);
}

TEST(HealthGuard, SkipUpdatePolicyKeepsRunAlive)
{
    auto config = rigConfig(Which::Maddpg);
    config.healthPolicy = core::HealthGuardPolicy::SkipUpdate;
    Rig rig = makeRig(Which::Maddpg, config);
    rig.loop->run(4); // Warm up: real updates have happened.
    poisonCritic(*rig.trainer);
    const auto r = rig.loop->run(8);
    EXPECT_FALSE(r.halted);
    EXPECT_GT(r.nonFiniteUpdates, 0u);
    EXPECT_EQ(r.episodeRewards.size(), 8u);
}

TEST(HealthGuard, HaltPolicyStopsTheRun)
{
    auto config = rigConfig(Which::Maddpg);
    config.healthPolicy = core::HealthGuardPolicy::Halt;
    Rig rig = makeRig(Which::Maddpg, config);
    rig.loop->run(4);
    poisonCritic(*rig.trainer);
    const auto r = rig.loop->run(8);
    EXPECT_TRUE(r.halted);
    EXPECT_GT(r.nonFiniteUpdates, 0u);
    EXPECT_LT(r.episodeRewards.size(), 8u);
}

TEST(HealthGuard, RollbackPolicyRestoresCleanState)
{
    const std::string dir = freshDir("rollback");
    auto config = rigConfig(Which::Maddpg);
    config.healthPolicy = core::HealthGuardPolicy::Rollback;
    config.healthMaxRollbacks = 2;
    Rig rig = makeRig(Which::Maddpg, config);
    core::CheckpointOptions opts;
    opts.dir = dir;
    opts.everyEpisodes = 1;
    opts.resume = false; // The poison below must survive run()'s
                         // startup, or there is nothing to roll back.
    rig.loop->setCheckpointing(opts);
    rig.loop->run(4); // Rotation holds episodes 3 and 4.

    poisonCritic(*rig.trainer);
    const auto r = rig.loop->run(8);
    EXPECT_FALSE(r.halted);
    EXPECT_GE(r.rollbacks, 1u);
    EXPECT_EQ(r.episodeRewards.size(), 8u);
    // The restored critic is finite again.
    const auto params = rig.trainer->networks(0).critic.params();
    EXPECT_TRUE(std::isfinite(params[0]->value.data()[0]));
}

} // namespace
} // namespace marlin

/**
 * @file
 * Tests for the sharded, out-of-core replay engine (PR-10): the
 * cross-shard determinism contract (bit-identical sampling for any
 * power-of-two shard count), the spill/fault round trip through the
 * mmap cold tier (including a forced page-cache drop so reads truly
 * come back from disk), the zero-allocation all-hot gather steady
 * state, cold-segment header CRC detection, typed geometry errors
 * and all-or-nothing ShardedStore/MultiAgentBuffer state restores,
 * and the one-shard, all-hot configuration as the interleaved
 * (Section IV-B2) layout: SoA-equivalent gathers, one record read
 * per index.
 */

#include <gtest/gtest.h>

#include <filesystem>
#include <memory>
#include <sstream>
#include <vector>

#include "marlin/base/alloc_guard.hh"
#include "marlin/base/fault_injector.hh"
#include "marlin/base/random.hh"
#include "marlin/numeric/matrix.hh"
#include "marlin/replay/cold_tier.hh"
#include "marlin/replay/gather.hh"
#include "marlin/replay/replay_buffer.hh"
#include "marlin/replay/reuse_sampler.hh"
#include "marlin/replay/sharded_store.hh"
#include "marlin/replay/uniform_sampler.hh"

namespace marlin::replay
{
namespace
{

/** Two agents with unequal obs dims so per-agent offsets matter. */
std::vector<TransitionShape>
testShapes()
{
    return {{3, 2}, {4, 2}};
}

/** Fresh scratch directory under the gtest temp root. */
std::string
freshDir(const std::string &name)
{
    const std::string dir = ::testing::TempDir() + "marlin_" + name;
    std::filesystem::remove_all(dir);
    std::filesystem::create_directories(dir);
    return dir;
}

/** Append transition @p t with recognizable per-agent content. */
void
appendMarked(ReplayStore &store, int t)
{
    std::vector<std::vector<Real>> obs, act, next;
    std::vector<Real> rew;
    std::vector<bool> done;
    for (std::size_t a = 0; a < store.numAgents(); ++a) {
        const TransitionShape &shape = store.agentShape(a);
        const Real base =
            static_cast<Real>(t) + Real(0.01) * static_cast<Real>(a);
        obs.emplace_back(shape.obsDim, base);
        std::vector<Real> action(shape.actDim, Real(0));
        action[static_cast<std::size_t>(t) % shape.actDim] = Real(1);
        act.push_back(std::move(action));
        next.emplace_back(shape.obsDim, base + Real(0.5));
        rew.push_back(base * Real(2));
        done.push_back(t % 7 == 0);
    }
    store.append(obs, act, rew, next, done);
}

/** Gather every valid slot of @p store in logical order. */
std::vector<AgentBatch>
gatherEverything(const ReplayStore &store)
{
    IndexPlan plan;
    plan.indices.resize(store.size());
    for (BufferIndex i = 0; i < store.size(); ++i)
        plan.indices[i] = i;
    plan.weights.assign(store.size(), Real(1));
    std::vector<AgentBatch> out;
    store.gatherAll(plan, out);
    return out;
}

void
expectMatricesEqual(const Matrix &a, const Matrix &b,
                    const char *what, std::size_t agent)
{
    ASSERT_EQ(a.rows(), b.rows()) << what << " agent " << agent;
    ASSERT_EQ(a.cols(), b.cols()) << what << " agent " << agent;
    for (std::size_t i = 0; i < a.size(); ++i)
        ASSERT_EQ(a.data()[i], b.data()[i])
            << what << " agent " << agent << " element " << i;
}

void
expectBatchesEqual(const std::vector<AgentBatch> &a,
                   const std::vector<AgentBatch> &b)
{
    ASSERT_EQ(a.size(), b.size());
    for (std::size_t i = 0; i < a.size(); ++i) {
        expectMatricesEqual(a[i].obs, b[i].obs, "obs", i);
        expectMatricesEqual(a[i].actions, b[i].actions, "actions", i);
        expectMatricesEqual(a[i].rewards, b[i].rewards, "rewards", i);
        expectMatricesEqual(a[i].nextObs, b[i].nextObs, "nextObs", i);
        expectMatricesEqual(a[i].dones, b[i].dones, "dones", i);
    }
}

// --- cross-shard determinism ---------------------------------------

/**
 * The tentpole contract: samplers plan over the logical index space
 * and sharding is pure address arithmetic, so the same seed yields
 * bit-identical batches for ANY shard count.
 */
TEST(ShardedStore, UniformSamplingBitIdenticalAcrossShardCounts)
{
    constexpr BufferIndex capacity = 256;
    constexpr int filled = 200;
    constexpr std::size_t batch = 32;

    std::vector<std::vector<AgentBatch>> gathered;
    std::vector<std::vector<BufferIndex>> planned;
    for (std::size_t shards : {1u, 2u, 8u}) {
        ShardedStoreConfig cfg;
        cfg.shards = shards;
        ShardedStore store(testShapes(), capacity, cfg);
        for (int t = 0; t < filled; ++t)
            appendMarked(store, t);

        UniformSampler sampler;
        Rng rng(1234);
        IndexPlan plan;
        std::vector<AgentBatch> out;
        // Several rounds so ring state, not just the first draw, is
        // covered.
        for (int round = 0; round < 4; ++round) {
            sampler.planInto(store.size(), batch, rng, plan);
            store.gatherAll(plan, out);
        }
        planned.push_back(plan.indices);
        gathered.push_back(std::move(out));
    }
    EXPECT_EQ(planned[0], planned[1]);
    EXPECT_EQ(planned[0], planned[2]);
    expectBatchesEqual(gathered[0], gathered[1]);
    expectBatchesEqual(gathered[0], gathered[2]);
}

/** Same contract through the AccMER reuse sampler's cached plans. */
TEST(ShardedStore, AccmerSamplingBitIdenticalAcrossShardCounts)
{
    constexpr BufferIndex capacity = 256;
    constexpr int filled = 220;
    constexpr std::size_t batch = 32;

    std::vector<std::vector<AgentBatch>> gathered;
    std::vector<std::vector<BufferIndex>> planned;
    for (std::size_t shards : {1u, 2u, 8u}) {
        ShardedStoreConfig cfg;
        cfg.shards = shards;
        ShardedStore store(testShapes(), capacity, cfg);

        PerConfig per;
        per.capacity = capacity;
        ReuseConfig reuse;
        reuse.reuseWindow = 3;
        reuse.runLength = 4;
        ReuseSampler sampler(per, reuse);
        for (int t = 0; t < filled; ++t) {
            appendMarked(store, t);
            sampler.onAdd(store.writeCursor() == 0
                              ? capacity - 1
                              : store.writeCursor() - 1);
        }

        Rng rng(99);
        IndexPlan plan;
        std::vector<AgentBatch> out;
        // 7 rounds crosses two reuse windows (fresh, cached, cached,
        // fresh, ...), so both the draw and the replay paths run.
        for (int round = 0; round < 7; ++round) {
            sampler.planInto(store.size(), batch, rng, plan);
            store.gatherAll(plan, out);
        }
        planned.push_back(plan.indices);
        gathered.push_back(std::move(out));
    }
    EXPECT_EQ(planned[0], planned[1]);
    EXPECT_EQ(planned[0], planned[2]);
    expectBatchesEqual(gathered[0], gathered[1]);
    expectBatchesEqual(gathered[0], gathered[2]);
}

// --- cold tier round trip ------------------------------------------

/**
 * Spill, wrap the ring, drop the page cache, and gather everything:
 * records faulted back from the mmap segments must be byte-identical
 * to an all-hot store fed the same append stream.
 */
TEST(ShardedStore, SpillGatherRoundTripSurvivesPageCacheDrop)
{
    constexpr BufferIndex capacity = 64;
    const std::string dir = freshDir("spill_roundtrip");

    ShardedStoreConfig cold_cfg;
    cold_cfg.shards = 2;
    cold_cfg.hotCapacity = 16;
    cold_cfg.coldDir = dir;
    cold_cfg.segmentSlots = 8; // Several segments per shard.
    ShardedStore cold_store(testShapes(), capacity, cold_cfg);

    ShardedStoreConfig hot_cfg;
    hot_cfg.shards = 2;
    ShardedStore hot_store(testShapes(), capacity, hot_cfg);

    // 1.5x capacity: the ring wraps and cold slots get rewritten.
    for (int t = 0; t < 96; ++t) {
        appendMarked(cold_store, t);
        appendMarked(hot_store, t);
    }
    ASSERT_EQ(cold_store.size(), capacity);
    ASSERT_GT(cold_store.coldTier(0)->spilledCount(), 0u);

    // Force the next reads to fault in from disk, not page cache.
    cold_store.dropColdPageCache();

    expectBatchesEqual(gatherEverything(cold_store),
                       gatherEverything(hot_store));
}

TEST(ShardedStore, HotWindowTracksNewestRecords)
{
    const std::string dir = freshDir("hot_window");
    ShardedStoreConfig cfg;
    cfg.shards = 2;
    cfg.hotCapacity = 8;
    cfg.coldDir = dir;
    ShardedStore store(testShapes(), 32, cfg);
    for (int t = 0; t < 32; ++t)
        appendMarked(store, t);
    // Slots 0..23 evicted to cold, newest 8 (24..31) still hot.
    for (BufferIndex slot = 0; slot < 24; ++slot)
        EXPECT_FALSE(store.isHot(slot)) << "slot " << slot;
    for (BufferIndex slot = 24; slot < 32; ++slot)
        EXPECT_TRUE(store.isHot(slot)) << "slot " << slot;
}

// --- zero-alloc steady state ---------------------------------------

/** All-hot gathers reuse retained matrices: the PR-5 contract. */
TEST(ShardedStore, AllHotGatherIsAllocationFree)
{
    ShardedStoreConfig cfg;
    cfg.shards = 4;
    ShardedStore store(testShapes(), 128, cfg);
    for (int t = 0; t < 128; ++t)
        appendMarked(store, t);

    IndexPlan plan;
    plan.indices.resize(32);
    plan.weights.assign(32, Real(1));
    Rng rng(5);
    std::vector<AgentBatch> out;
    for (std::size_t i = 0; i < plan.indices.size(); ++i)
        plan.indices[i] = rng.randint(store.size());
    store.gatherAll(plan, out); // Warm: matrices sized here.

    base::AllocGuard guard(base::AllocGuard::Mode::Forbid);
    for (int round = 0; round < 8; ++round) {
        for (std::size_t i = 0; i < plan.indices.size(); ++i)
            plan.indices[i] = rng.randint(store.size());
        store.gatherAll(plan, out);
    }
    EXPECT_EQ(guard.allocations(), 0u);
    EXPECT_EQ(guard.bytes(), 0u);
}

// --- cold segment integrity ----------------------------------------

TEST(ColdTier, RestoreVerifiesHeaderCrcAndGeometry)
{
    const std::string dir = freshDir("cold_crc");
    constexpr std::size_t stride = 8;
    constexpr BufferIndex slots = 32;
    constexpr BufferIndex seg_slots = 16;

    std::vector<std::uint64_t> seg_records;
    std::uint64_t spilled = 0;
    std::vector<Real> rec(stride);
    {
        MmapColdTier tier(dir, 0, 1, stride, slots, seg_slots);
        for (BufferIndex slot = 0; slot < slots; ++slot) {
            for (std::size_t k = 0; k < stride; ++k)
                rec[k] = static_cast<Real>(slot * stride + k);
            tier.writeRecord(slot, rec.data());
        }
        tier.flush();
        seg_records = tier.segmentRecords();
        spilled = tier.spilledCount();
        ASSERT_EQ(tier.segmentCount(), 2u);
    }

    // A clean reopen restores and serves the spilled bytes back.
    {
        MmapColdTier tier(dir, 0, 1, stride, slots, seg_slots);
        const StoreLoadResult r = tier.restore(spilled, seg_records);
        ASSERT_TRUE(r) << r.detail;
        const Real *got = tier.readRecord(21);
        for (std::size_t k = 0; k < stride; ++k)
            EXPECT_EQ(got[k], static_cast<Real>(21 * stride + k));
    }

    // Flip a byte inside the second segment's header: restore must
    // fail with the typed Corrupt error, naming the file.
    const std::string victim =
        dir + "/shard-0000.seg-00001.mrcs";
    ASSERT_TRUE(base::corruptFileByte(victim, 8));
    {
        MmapColdTier tier(dir, 0, 1, stride, slots, seg_slots);
        const StoreLoadResult r = tier.restore(spilled, seg_records);
        ASSERT_FALSE(r);
        EXPECT_EQ(r.error, StoreLoadError::Corrupt);
        EXPECT_NE(r.detail.find("CRC"), std::string::npos)
            << r.detail;
    }
}

TEST(ColdTier, RestoreRejectsMissingSegment)
{
    const std::string dir = freshDir("cold_missing");
    std::vector<std::uint64_t> seg_records;
    std::uint64_t spilled = 0;
    {
        MmapColdTier tier(dir, 0, 1, 4, 16, 8);
        const std::vector<Real> rec(4, Real(1));
        for (BufferIndex slot = 0; slot < 16; ++slot)
            tier.writeRecord(slot, rec.data());
        tier.flush();
        seg_records = tier.segmentRecords();
        spilled = tier.spilledCount();
    }
    std::filesystem::remove(dir + "/shard-0000.seg-00000.mrcs");
    MmapColdTier tier(dir, 0, 1, 4, 16, 8);
    const StoreLoadResult r = tier.restore(spilled, seg_records);
    ASSERT_FALSE(r);
    EXPECT_EQ(r.error, StoreLoadError::IoError);
}

// --- state round trip and typed geometry errors --------------------

TEST(ShardedStore, SaveLoadRoundTripWithColdTier)
{
    constexpr BufferIndex capacity = 64;
    const std::string dir = freshDir("state_roundtrip");

    ShardedStoreConfig cfg;
    cfg.shards = 2;
    cfg.hotCapacity = 16;
    cfg.coldDir = dir;
    cfg.segmentSlots = 8;

    ShardedStore a(testShapes(), capacity, cfg);
    for (int t = 0; t < 80; ++t)
        appendMarked(a, t);

    std::ostringstream os;
    a.saveState(os);

    // Resume semantics: a fresh store over the SAME cold directory
    // (the segments are the cold half of the checkpoint).
    ShardedStore b(testShapes(), capacity, cfg);
    std::istringstream is(os.str());
    const StoreLoadResult r = b.loadState(is);
    ASSERT_TRUE(r) << r.detail;
    EXPECT_EQ(b.size(), a.size());
    EXPECT_EQ(b.writeCursor(), a.writeCursor());
    b.dropColdPageCache();
    expectBatchesEqual(gatherEverything(b), gatherEverything(a));
}

TEST(ShardedStore, LoadStateRejectsGeometryMismatch)
{
    ShardedStoreConfig cfg;
    cfg.shards = 2;
    ShardedStore a(testShapes(), 64, cfg);
    for (int t = 0; t < 10; ++t)
        appendMarked(a, t);
    std::ostringstream os;
    a.saveState(os);

    // Different capacity: typed ShapeMismatch, store untouched.
    ShardedStore b(testShapes(), 128, cfg);
    std::istringstream is(os.str());
    const StoreLoadResult r = b.loadState(is);
    ASSERT_FALSE(r);
    EXPECT_EQ(r.error, StoreLoadError::ShapeMismatch);
    EXPECT_EQ(b.size(), 0u);

    // Different shard count over the same capacity too.
    ShardedStoreConfig four = cfg;
    four.shards = 4;
    ShardedStore c(testShapes(), 64, four);
    std::istringstream is2(os.str());
    const StoreLoadResult r2 = c.loadState(is2);
    ASSERT_FALSE(r2);
    EXPECT_EQ(r2.error, StoreLoadError::ShapeMismatch);
}

TEST(MultiAgentBuffer, LoadStateRejectsCapacityMismatch)
{
    MultiAgentBuffer a({{3, 2}, {4, 2}}, 64);
    for (int t = 0; t < 5; ++t)
        appendMarked(a, t);
    std::ostringstream os;
    a.saveState(os);

    MultiAgentBuffer b({{3, 2}, {4, 2}}, 128);
    std::istringstream is(os.str());
    const StoreLoadResult r = b.loadState(is);
    ASSERT_FALSE(r);
    EXPECT_EQ(r.error, StoreLoadError::ShapeMismatch);
    EXPECT_NE(r.detail.find("does not match"), std::string::npos)
        << r.detail;
    EXPECT_EQ(b.size(), 0u) << "failed load must not mutate";
}

TEST(ShardedStore, TruncatedStateIsATypedError)
{
    ShardedStoreConfig cfg;
    cfg.shards = 2;
    ShardedStore a(testShapes(), 64, cfg);
    for (int t = 0; t < 20; ++t)
        appendMarked(a, t);
    std::ostringstream os;
    a.saveState(os);
    const std::string full = os.str();

    // The target store already holds DIFFERENT records: a truncated
    // payload must leave them byte-identical (the StoreLoadResult
    // contract), not half-overwritten with the checkpoint's.
    ShardedStore b(testShapes(), 64, cfg);
    for (int t = 100; t < 112; ++t)
        appendMarked(b, t);
    const std::vector<AgentBatch> before = gatherEverything(b);
    const BufferIndex size_before = b.size();

    std::istringstream is(full.substr(0, full.size() / 2));
    const StoreLoadResult r = b.loadState(is);
    ASSERT_FALSE(r);
    EXPECT_EQ(r.error, StoreLoadError::Truncated);
    EXPECT_EQ(b.size(), size_before)
        << "failed load must not mutate";
    expectBatchesEqual(gatherEverything(b), before);
}

/**
 * A stream whose second agent's shape differs from the target's must
 * fail as a ShapeMismatch without touching agent 0: every agent is
 * staged before any ring is overwritten, so the rings stay in sync.
 */
TEST(MultiAgentBuffer, LaterAgentMismatchLeavesEarlierAgentsIntact)
{
    MultiAgentBuffer a({{3, 2}, {4, 2}}, 64);
    for (int t = 0; t < 20; ++t)
        appendMarked(a, t);
    std::ostringstream os;
    a.saveState(os);

    MultiAgentBuffer b({{3, 2}, {5, 2}}, 64);
    for (int t = 100; t < 107; ++t)
        appendMarked(b, t);
    const std::vector<AgentBatch> before = gatherEverything(b);

    std::istringstream is(os.str());
    const StoreLoadResult r = b.loadState(is);
    ASSERT_FALSE(r);
    EXPECT_EQ(r.error, StoreLoadError::ShapeMismatch);
    EXPECT_EQ(b.size(), 7u) << "failed load must not mutate";
    expectBatchesEqual(gatherEverything(b), before);
}

TEST(MultiAgentBuffer, TruncatedStateIsATypedError)
{
    MultiAgentBuffer a(testShapes(), 64);
    for (int t = 0; t < 20; ++t)
        appendMarked(a, t);
    std::ostringstream os;
    a.saveState(os);
    const std::string full = os.str();

    MultiAgentBuffer b(testShapes(), 64);
    for (int t = 100; t < 112; ++t)
        appendMarked(b, t);
    const std::vector<AgentBatch> before = gatherEverything(b);

    // Cut inside the second agent's data regions.
    std::istringstream is(full.substr(0, full.size() - 8));
    const StoreLoadResult r = b.loadState(is);
    ASSERT_FALSE(r);
    EXPECT_EQ(r.error, StoreLoadError::Truncated);
    EXPECT_EQ(b.size(), 12u) << "failed load must not mutate";
    expectBatchesEqual(gatherEverything(b), before);
}

// --- the interleaved layout: one all-hot shard ---------------------

/** Three agents with distinct obs dims and a 5-way action. */
std::vector<TransitionShape>
threeAgentShapes()
{
    return {{3, 5}, {4, 5}, {6, 5}};
}

TEST(InterleavedStore, RecordSizeIsSumOfFlatSizes)
{
    ShardedStore store(threeAgentShapes(), 16, {});
    // (2*3+5+2) + (2*4+5+2) + (2*6+5+2) = 13+15+19 = 47.
    EXPECT_EQ(store.layout().stride, 47u);
    EXPECT_EQ(store.storageBytes(), 47u * 16 * sizeof(Real));
}

TEST(InterleavedStore, AppendMatchesBaselineGather)
{
    MultiAgentBuffer buf(threeAgentShapes(), 128);
    ShardedStore store(threeAgentShapes(), 128, {});
    for (int t = 0; t < 100; ++t) {
        appendMarked(buf, t);
        appendMarked(store, t);
    }

    IndexPlan plan;
    plan.indices = {0, 50, 99, 42};
    std::vector<AgentBatch> baseline, interleaved;
    gatherAllAgents(buf, plan, baseline);
    store.gatherAll(plan, interleaved);
    expectBatchesEqual(baseline, interleaved);
}

TEST(InterleavedStore, RingWraparound)
{
    ShardedStore store({{2, 5}}, 4, {});
    for (int t = 0; t < 6; ++t)
        appendMarked(store, t);
    EXPECT_EQ(store.size(), 4u);
    IndexPlan plan;
    plan.indices = {0, 1, 2, 3};
    std::vector<AgentBatch> out;
    store.gatherAll(plan, out);
    // Slots 0,1 overwritten by t=4,5 (appendMarked's reward is 2t).
    EXPECT_EQ(out[0].rewards(0, 0), Real(8));
    EXPECT_EQ(out[0].rewards(1, 0), Real(10));
    EXPECT_EQ(out[0].rewards(2, 0), Real(4));
    EXPECT_EQ(out[0].rewards(3, 0), Real(6));
}

TEST(InterleavedStore, GatherTraceIsOneRecordPerIndex)
{
    MultiAgentBuffer buf(threeAgentShapes(), 64);
    ShardedStore store(threeAgentShapes(), 64, {});
    for (int t = 0; t < 32; ++t) {
        appendMarked(buf, t);
        appendMarked(store, t);
    }

    IndexPlan plan;
    plan.indices = {1, 2, 3, 4, 5};
    std::vector<AgentBatch> out;
    AccessTrace trace;
    store.gatherAll(plan, out, &trace);
    // One contiguous record read per index — the O(m) property.
    EXPECT_EQ(trace.size(), 5u);
    EXPECT_EQ(trace.entries()[0].bytes,
              store.layout().stride * sizeof(Real));

    // Baseline gather touches 3 reads per index per agent: O(N*m).
    AccessTrace baseline_trace;
    std::vector<AgentBatch> baseline;
    gatherAllAgents(buf, plan, baseline, &baseline_trace);
    EXPECT_EQ(baseline_trace.size(), 5u * 3u * buf.numAgents());
}

TEST(InterleavedStore, RecordsAreContiguousInMemory)
{
    ShardedStore store(threeAgentShapes(), 8, {});
    for (int t = 0; t < 2; ++t)
        appendMarked(store, t);
    IndexPlan plan;
    plan.indices = {0, 1};
    std::vector<AgentBatch> out;
    AccessTrace trace;
    store.gatherAll(plan, out, &trace);
    ASSERT_EQ(trace.size(), 2u);
    EXPECT_EQ(trace.entries()[1].addr - trace.entries()[0].addr,
              store.layout().stride * sizeof(Real));
}

// --- AccMER stratification coverage --------------------------------

/**
 * Fresh AccMER draws stratify over the full cumulative priority
 * mass: the loop emits ceil(batch/runLength) references, so the
 * strata must tile total() over THAT count. With uniform priorities
 * every fresh plan must therefore reference both the bottom and the
 * top quarter of the index space (regression: stratifying over
 * batch confined references to the first ~1/runLength of the mass,
 * leaving ~87% of it unsampleable at the default runLength=8).
 */
TEST(ReuseSampler, StratifiedReferencesCoverFullPriorityMass)
{
    constexpr BufferIndex capacity = 256;
    constexpr std::size_t batch = 32;

    PerConfig per;
    per.capacity = capacity;
    ReuseConfig reuse;
    reuse.reuseWindow = 1; // Every plan is a fresh draw.
    reuse.runLength = 8;   // 4 references per batch.
    ReuseSampler sampler(per, reuse);
    for (BufferIndex i = 0; i < capacity; ++i)
        sampler.onAdd(i);

    Rng rng(7);
    IndexPlan plan;
    for (int round = 0; round < 8; ++round) {
        sampler.planInto(capacity, batch, rng, plan);
        ASSERT_EQ(plan.priorityIds.size(), batch);
        BufferIndex lo = capacity, hi = 0;
        for (BufferIndex id : plan.priorityIds) {
            lo = id < lo ? id : lo;
            hi = id > hi ? id : hi;
        }
        // Uniform priorities: the first stratum's reference must sit
        // in the bottom quarter and the last one in the top quarter.
        EXPECT_LT(lo, capacity / 4) << "round " << round;
        EXPECT_GE(hi, capacity - capacity / 4) << "round " << round;
    }
}

} // namespace
} // namespace marlin::replay

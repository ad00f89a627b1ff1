/**
 * @file
 * Sharded, tiered replay storage: the out-of-core backend behind
 * the ReplayStore interface (ROADMAP item 1's 100M+ transitions).
 *
 * Logical slots are striped across a power-of-two shard count by
 * low bits — shard = slot & (S-1), shard-local slot = slot >> log2 S
 * — so consecutive appends round-robin the shards (per-actor
 * sharding falls out when S == actor lanes) and the mapping is pure
 * arithmetic: samplers keep planning over [0, size()) and results
 * are bit-identical for ANY shard count (the PR-1 contract, applied
 * to shards).
 *
 * Each shard is a ring of interleaved joint records (stride and
 * field offsets exactly JointTransitionLayout::fromShapes, i.e. the
 * async TransitionRing record format — the drain path is a single
 * memcpy). The newest hotCapacity/S records per shard live in a RAM
 * ring (the hot tier); on eviction the displaced record is spilled
 * write-behind into the shard's MmapColdTier at its shard-local
 * slot, and gathers reaching past the hot window fault it back
 * from the mapped segment. With no cold directory configured the
 * store is all-hot and hotCapacity must equal capacity.
 */

#ifndef MARLIN_REPLAY_SHARDED_STORE_HH
#define MARLIN_REPLAY_SHARDED_STORE_HH

#include <memory>
#include <string>
#include <vector>

#include "marlin/numeric/kernels.hh"
#include "marlin/replay/cold_tier.hh"
#include "marlin/replay/replay_store.hh"
#include "marlin/replay/transition_ring.hh"

namespace marlin::replay
{

/** Construction knobs for ShardedStore. */
struct ShardedStoreConfig
{
    /** Power-of-two shard count. */
    std::size_t shards = 1;
    /**
     * Joint transitions kept in RAM across all shards; 0 means
     * all-hot (hotCapacity = capacity). Rounded the same way as
     * capacity: must be a multiple of the shard count.
     */
    BufferIndex hotCapacity = 0;
    /** Cold-segment directory; empty disables the cold tier. */
    std::string coldDir;
    /** Records per cold segment file. */
    BufferIndex segmentSlots = MmapColdTier::kDefaultSegmentSlots;
};

/** Power-of-two sharded ring with an optional mmap cold tier. */
class ShardedStore : public ReplayStore
{
  public:
    ShardedStore(std::vector<TransitionShape> shapes,
                 BufferIndex capacity, ShardedStoreConfig config);

    // ReplayStore interface.
    const char *backendName() const override { return "sharded"; }
    std::size_t numAgents() const override { return shapes.size(); }
    const TransitionShape &
    agentShape(std::size_t agent) const override
    {
        return shapes[agent];
    }
    BufferIndex capacity() const override { return _capacity; }
    BufferIndex size() const override
    {
        return _appended < _capacity ? _appended : _capacity;
    }
    BufferIndex writeCursor() const override
    {
        return _appended % _capacity;
    }

    void append(const std::vector<std::vector<Real>> &obs,
                const std::vector<std::vector<Real>> &actions,
                const std::vector<Real> &rewards,
                const std::vector<std::vector<Real>> &next_obs,
                const std::vector<bool> &dones) override;

    void appendRecord(const JointTransitionLayout &layout,
                      const Real *rec) override;

    /**
     * Gathers stage cold faults through one shared scratch row, so
     * at most one thread may gather at a time (see coldStage).
     */
    void gatherAgent(std::size_t agent, const IndexPlan &plan,
                     AgentBatch &out,
                     AccessTrace *trace = nullptr) const override;

    void gatherAll(const IndexPlan &plan,
                   std::vector<AgentBatch> &out,
                   AccessTrace *trace = nullptr) const override;

    std::size_t storageBytes() const override;

    void saveState(std::ostream &os) const override;
    StoreLoadResult loadState(std::istream &is) override;

    // Sharding introspection (tests / benches / metrics).
    std::size_t shardCount() const { return shards_.size(); }
    BufferIndex hotCapacity() const { return hotCap; }
    bool coldEnabled() const { return !coldDir.empty(); }
    const JointTransitionLayout &layout() const { return _layout; }

    /** True when logical @p slot is resident in the hot ring. */
    bool isHot(BufferIndex slot) const;

    /** Cold tier of shard @p s (null when cold is disabled). */
    const MmapColdTier *
    coldTier(std::size_t s) const
    {
        return shards_[s].cold.get();
    }

    /** Flush cold segments (headers + msync); no-op when all-hot. */
    void flushCold() const;

    /** Drop cold-tier page cache (test hook; no-op when all-hot). */
    void dropColdPageCache() const;

  private:
    struct Shard
    {
        std::vector<Real> hot; ///< hotSlots * stride Reals.
        BufferIndex appended = 0;
        std::unique_ptr<MmapColdTier> cold;
    };

    /**
     * Record pointer for logical @p slot; sets @p cold_hit when the
     * record came from the mapped cold tier (counts the fault).
     */
    const Real *recordAt(BufferIndex slot, bool *cold_hit) const;

    /** Copy one record's agent fields into the batch row. */
    void scatterRecord(const numeric::kernels::KernelTable &kt,
                       const Real *rec, std::size_t row,
                       std::vector<AgentBatch> &out) const;

    std::vector<TransitionShape> shapes;
    JointTransitionLayout _layout;
    BufferIndex _capacity;
    BufferIndex hotCap;
    std::size_t shardBits;
    BufferIndex shardSlots;    ///< capacity / shards.
    BufferIndex hotSlots;      ///< hotCapacity / shards.
    BufferIndex _appended = 0; ///< Lifetime joint appends.
    std::string coldDir;
    std::vector<Shard> shards_;
    /**
     * Retained staging row for append()'s pack step, sized once at
     * construction so the steady-state append stays allocation-free
     * (the PR-5 contract).
     */
    std::vector<Real> packScratch;
    /**
     * Retained workspace slot cold gathers stage records through:
     * gatherAll copies a faulted record here once, then scatters to
     * every agent from RAM instead of touching the mapped page per
     * agent. All-hot gathers never use it, preserving the zero-alloc
     * steady state.
     *
     * THREADING: this is one shared, unsynchronized scratch row, so
     * at most ONE thread may run gatherAgent/gatherAll at a time
     * (today that is the trainer update's serial prologue). Parallel
     * gathers would need per-caller staging before they are safe.
     */
    mutable std::vector<Real> coldStage;
};

} // namespace marlin::replay

#endif // MARLIN_REPLAY_SHARDED_STORE_HH

#include "marlin/replay/sharded_store.hh"

#include <cstring>

#include "marlin/base/serialize.hh"
#include "marlin/numeric/kernels.hh"
#include "marlin/obs/metrics.hh"
#include "marlin/replay/gather.hh"

namespace marlin::replay
{

namespace
{

bool
isPowerOfTwo(std::size_t v)
{
    return v != 0 && (v & (v - 1)) == 0;
}

std::size_t
log2OfPow2(std::size_t v)
{
    std::size_t bits = 0;
    while ((std::size_t{1} << bits) < v)
        ++bits;
    return bits;
}

obs::Counter &
faultedCounter()
{
    static obs::Counter &c =
        obs::Registry::instance().counter("replay.cold.faulted");
    return c;
}

/** Non-fatal readPod: false on a short read. */
template <typename T>
bool
tryReadPod(std::istream &is, T &out)
{
    is.read(reinterpret_cast<char *>(&out), sizeof(T));
    return static_cast<bool>(is);
}

} // namespace

ShardedStore::ShardedStore(std::vector<TransitionShape> shapes_in,
                           BufferIndex capacity,
                           ShardedStoreConfig config)
    : shapes(std::move(shapes_in)),
      _layout(JointTransitionLayout::fromShapes(shapes)),
      _capacity(capacity), coldDir(config.coldDir)
{
    MARLIN_ASSERT(!shapes.empty(), "sharded store needs agents");
    MARLIN_ASSERT(capacity > 0, "sharded store capacity must be > 0");
    if (!isPowerOfTwo(config.shards))
        fatal("replay shard count %zu is not a power of two",
              config.shards);
    if (_capacity % config.shards != 0)
        fatal("replay capacity %zu is not divisible by %zu shards",
              static_cast<std::size_t>(_capacity), config.shards);

    hotCap = config.hotCapacity == 0 ? _capacity : config.hotCapacity;
    if (hotCap > _capacity)
        fatal("replay hot capacity %zu exceeds capacity %zu",
              static_cast<std::size_t>(hotCap),
              static_cast<std::size_t>(_capacity));
    if (hotCap % config.shards != 0)
        fatal("replay hot capacity %zu is not divisible by %zu "
              "shards",
              static_cast<std::size_t>(hotCap), config.shards);
    if (hotCap < _capacity && coldDir.empty())
        fatal("replay hot capacity %zu < capacity %zu requires "
              "--replay-cold-dir",
              static_cast<std::size_t>(hotCap),
              static_cast<std::size_t>(_capacity));
    if (hotCap == _capacity)
        coldDir.clear(); // All-hot: the cold tier would never spill.

    shardBits = log2OfPow2(config.shards);
    shardSlots = _capacity >> shardBits;
    hotSlots = hotCap >> shardBits;
    MARLIN_ASSERT(hotSlots > 0, "hot tier needs >= 1 slot per shard");

    shards_.resize(config.shards);
    for (std::size_t s = 0; s < config.shards; ++s) {
        Shard &sh = shards_[s];
        sh.hot.resize(static_cast<std::size_t>(hotSlots) *
                      _layout.stride);
        if (!coldDir.empty())
            sh.cold = std::make_unique<MmapColdTier>(
                coldDir, s, config.shards, _layout.stride,
                shardSlots, config.segmentSlots);
    }

    packScratch.resize(_layout.stride);
    coldStage.resize(_layout.stride);

    static obs::Gauge &shard_count =
        obs::Registry::instance().gauge("replay.shard.count");
    static obs::Gauge &hot_capacity =
        obs::Registry::instance().gauge("replay.shard.hot_capacity");
    shard_count.set(static_cast<std::int64_t>(config.shards));
    hot_capacity.set(static_cast<std::int64_t>(hotCap));
}

void
ShardedStore::append(const std::vector<std::vector<Real>> &obs,
                     const std::vector<std::vector<Real>> &actions,
                     const std::vector<Real> &rewards,
                     const std::vector<std::vector<Real>> &next_obs,
                     const std::vector<bool> &dones)
{
    MARLIN_ASSERT(obs.size() == shapes.size(),
                  "per-agent vectors must match agent count");
    packRecord(packScratch.data(), _layout, obs, actions, rewards,
               next_obs, dones);
    appendRecord(_layout, packScratch.data());
}

void
ShardedStore::appendRecord(const JointTransitionLayout &layout,
                           const Real *rec)
{
    MARLIN_ASSERT(layout.stride == _layout.stride,
                  "drain layout does not match store layout");
    static obs::Counter &appends =
        obs::Registry::instance().counter("replay.shard.appends");

    const BufferIndex l = _appended % _capacity;
    const std::size_t s = l & (shards_.size() - 1);
    Shard &sh = shards_[s];
    const BufferIndex j = l >> shardBits; // Shard-local slot.
    const BufferIndex h = j % hotSlots;   // Hot ring slot.

    // Write-behind spill: the record this hot slot still holds was
    // appended hotSlots shard-appends ago and is leaving the hot
    // window now; park it at its shard-local cold slot before the
    // overwrite. Readers shadow stale cold copies with hot ones, so
    // spilling before the hot write keeps every slot readable.
    if (sh.cold && sh.appended >= hotSlots) {
        const BufferIndex evict =
            (j + shardSlots - hotSlots) % shardSlots;
        sh.cold->writeRecord(evict,
                             sh.hot.data() +
                                 static_cast<std::size_t>(h) *
                                     _layout.stride);
    }

    std::memcpy(sh.hot.data() +
                    static_cast<std::size_t>(h) * _layout.stride,
                rec, _layout.stride * sizeof(Real));
    ++sh.appended;
    ++_appended;
    appends.add();
}

bool
ShardedStore::isHot(BufferIndex slot) const
{
    const std::size_t s = slot & (shards_.size() - 1);
    const Shard &sh = shards_[s];
    if (!sh.cold)
        return true;
    const BufferIndex j = slot >> shardBits;
    const BufferIndex jpos = sh.appended % shardSlots;
    const BufferIndex age =
        (jpos + shardSlots - 1 - j) % shardSlots;
    const BufferIndex resident =
        sh.appended < hotSlots ? sh.appended : hotSlots;
    return age < resident;
}

const Real *
ShardedStore::recordAt(BufferIndex slot, bool *cold_hit) const
{
    const Shard &sh = shards_[slot & (shards_.size() - 1)];
    const BufferIndex j = slot >> shardBits;
    *cold_hit = false;
    // Without a cold tier the shard is all-hot (hotSlots ==
    // shardSlots), so the shard-local slot is the hot slot: no
    // residency test and no modulo on the gather path.
    if (!sh.cold)
        return sh.hot.data() +
               static_cast<std::size_t>(j) * _layout.stride;
    if (isHot(slot))
        return sh.hot.data() +
               static_cast<std::size_t>(j % hotSlots) *
                   _layout.stride;
    *cold_hit = true;
    faultedCounter().add();
    return sh.cold->readRecord(j);
}

void
ShardedStore::scatterRecord(const numeric::kernels::KernelTable &kt,
                            const Real *rec, std::size_t row,
                            std::vector<AgentBatch> &out) const
{
    // Locals, not members, carry the loop: the indirect kernel calls
    // would otherwise force a reload of every member per field.
    const std::size_t n = shapes.size();
    const JointTransitionLayout::AgentBlock *blocks =
        _layout.agents.data();
    AgentBatch *dst = out.data();
    for (std::size_t a = 0; a < n; ++a) {
        // Each agent's block is obs | act | reward | nextObs | done,
        // back to back, so one cursor walks it.
        const std::size_t obs_dim = blocks[a].obsDim;
        const std::size_t act_dim = blocks[a].actDim;
        const Real *src = rec + blocks[a].obs;
        kt.copy(src, dst[a].obs.row(row), obs_dim);
        src += obs_dim;
        kt.copy(src, dst[a].actions.row(row), act_dim);
        src += act_dim;
        dst[a].rewards(row, 0) = *src++;
        kt.copy(src, dst[a].nextObs.row(row), obs_dim);
        src += obs_dim;
        dst[a].dones(row, 0) = *src;
    }
}

void
ShardedStore::gatherAgent(std::size_t agent, const IndexPlan &plan,
                          AgentBatch &out, AccessTrace *trace) const
{
    MARLIN_ASSERT(agent < shapes.size(), "agent out of range");
    const TransitionShape &shape = shapes[agent];
    const JointTransitionLayout::AgentBlock &blk =
        _layout.agents[agent];
    const std::size_t batch = plan.batchSize();
    out.resize(batch, shape);

    static obs::Counter &rows = obs::Registry::instance().counter(
        "replay.shard.gather_records");
    static obs::Counter &bytes = obs::Registry::instance().counter(
        "replay.shard.gather_bytes");
    rows.add(batch);
    bytes.add(batch * shape.flatSize() * sizeof(Real));

    const numeric::kernels::KernelTable &kt =
        numeric::kernels::active();
    const BufferIndex valid = size();
    for (std::size_t b = 0; b < batch; ++b) {
        const BufferIndex idx = plan.indices[b];
        MARLIN_ASSERT(idx < valid,
                      "gather index beyond valid transitions");
        bool cold_hit = false;
        const Real *rec = recordAt(idx, &cold_hit);
        if (MARLIN_UNLIKELY(trace != nullptr))
            trace->record(rec + blk.obs,
                          shape.flatSize() * sizeof(Real));
        if (MARLIN_UNLIKELY(cold_hit)) {
            // Stage the faulted record through the retained slot so
            // the field copies read RAM, not the mapped page.
            std::memcpy(coldStage.data(), rec,
                        _layout.stride * sizeof(Real));
            rec = coldStage.data();
        }
        kt.copy(rec + blk.obs, out.obs.row(b), blk.obsDim);
        kt.copy(rec + blk.act, out.actions.row(b), blk.actDim);
        out.rewards(b, 0) = rec[blk.reward];
        kt.copy(rec + blk.nextObs, out.nextObs.row(b), blk.obsDim);
        out.dones(b, 0) = rec[blk.done];
    }
}

void
ShardedStore::gatherAll(const IndexPlan &plan,
                        std::vector<AgentBatch> &out,
                        AccessTrace *trace) const
{
    const std::size_t n = shapes.size();
    const std::size_t batch = plan.batchSize();
    out.resize(n);
    for (std::size_t a = 0; a < n; ++a)
        out[a].resize(batch, shapes[a]);

    static obs::Counter &recs = obs::Registry::instance().counter(
        "replay.shard.gather_records");
    static obs::Counter &bytes = obs::Registry::instance().counter(
        "replay.shard.gather_bytes");
    recs.add(batch);
    bytes.add(batch * _layout.stride * sizeof(Real));

    // One record read per index serves every agent (Section IV-B2).
    const numeric::kernels::KernelTable &kt =
        numeric::kernels::active();
    const BufferIndex valid = size();
    for (std::size_t b = 0; b < batch; ++b) {
        const BufferIndex idx = plan.indices[b];
        MARLIN_ASSERT(idx < valid,
                      "gather index beyond valid transitions");
        bool cold_hit = false;
        const Real *rec = recordAt(idx, &cold_hit);
        if (MARLIN_UNLIKELY(trace != nullptr))
            trace->record(rec, _layout.stride * sizeof(Real));
        if (MARLIN_UNLIKELY(cold_hit)) {
            std::memcpy(coldStage.data(), rec,
                        _layout.stride * sizeof(Real));
            rec = coldStage.data();
        }
        scatterRecord(kt, rec, b, out);
    }
}

std::size_t
ShardedStore::storageBytes() const
{
    std::size_t total = 0;
    for (const Shard &sh : shards_) {
        total += sh.hot.size() * sizeof(Real);
        if (sh.cold)
            total += sh.cold->storageBytes();
    }
    return total;
}

void
ShardedStore::flushCold() const
{
    for (const Shard &sh : shards_)
        if (sh.cold)
            sh.cold->flush();
}

void
ShardedStore::dropColdPageCache() const
{
    for (const Shard &sh : shards_)
        if (sh.cold)
            sh.cold->dropPageCache();
}

void
ShardedStore::saveState(std::ostream &os) const
{
    // Make the on-disk segments consistent with the manifest the
    // checkpoint references before writing that manifest.
    flushCold();

    writePod<std::uint64_t>(os, shapes.size());
    for (const TransitionShape &s : shapes) {
        writePod<std::uint64_t>(os, s.obsDim);
        writePod<std::uint64_t>(os, s.actDim);
    }
    writePod<std::uint64_t>(os, _capacity);
    writePod<std::uint64_t>(os, hotCap);
    writePod<std::uint64_t>(os, shards_.size());
    writePod<std::uint64_t>(os, _appended);
    writePod<std::uint8_t>(os, coldDir.empty() ? 0 : 1);
    for (const Shard &sh : shards_) {
        writePod<std::uint64_t>(os, sh.appended);
        const BufferIndex valid =
            sh.appended < hotSlots ? sh.appended : hotSlots;
        os.write(reinterpret_cast<const char *>(sh.hot.data()),
                 static_cast<std::streamsize>(
                     static_cast<std::size_t>(valid) *
                     _layout.stride * sizeof(Real)));
        if (sh.cold) {
            writePod<std::uint64_t>(os, sh.cold->spilledCount());
            writeVector<std::uint64_t>(os, sh.cold->segmentRecords());
        }
    }
}

StoreLoadResult
ShardedStore::loadState(std::istream &is)
{
    // Geometry gate: reject before mutating anything.
    std::uint64_t agents = 0;
    if (!tryReadPod(is, agents))
        return StoreLoadResult::fail(StoreLoadError::Truncated,
                                     "sharded header truncated");
    if (agents != shapes.size())
        return StoreLoadResult::fail(StoreLoadError::ShapeMismatch,
                                     "agent count mismatch");
    for (const TransitionShape &s : shapes) {
        std::uint64_t obs_dim = 0, act_dim = 0;
        if (!tryReadPod(is, obs_dim) || !tryReadPod(is, act_dim))
            return StoreLoadResult::fail(StoreLoadError::Truncated,
                                         "sharded header truncated");
        if (obs_dim != s.obsDim || act_dim != s.actDim)
            return StoreLoadResult::fail(
                StoreLoadError::ShapeMismatch,
                "agent shape mismatch");
    }
    std::uint64_t capacity = 0, hot = 0, shard_count = 0,
                  appended = 0;
    std::uint8_t cold = 0;
    if (!tryReadPod(is, capacity) || !tryReadPod(is, hot) ||
        !tryReadPod(is, shard_count) || !tryReadPod(is, appended) ||
        !tryReadPod(is, cold))
        return StoreLoadResult::fail(StoreLoadError::Truncated,
                                     "sharded header truncated");
    if (capacity != _capacity || hot != hotCap ||
        shard_count != shards_.size() ||
        (cold != 0) != !coldDir.empty())
        return StoreLoadResult::fail(StoreLoadError::ShapeMismatch,
                                     "sharded geometry mismatch");

    // Stage the whole payload before touching any member: a
    // truncation anywhere below must leave the store's previous
    // contents intact (the StoreLoadResult contract).
    struct StagedShard
    {
        std::uint64_t appended = 0;
        std::vector<Real> hot;
        std::uint64_t spilled = 0;
        std::vector<std::uint64_t> segRecords;
    };
    std::vector<StagedShard> staged(shards_.size());
    for (StagedShard &st : staged) {
        if (!tryReadPod(is, st.appended))
            return StoreLoadResult::fail(StoreLoadError::Truncated,
                                         "shard record truncated");
        const BufferIndex valid =
            st.appended < hotSlots
                ? static_cast<BufferIndex>(st.appended)
                : hotSlots;
        st.hot.resize(static_cast<std::size_t>(valid) *
                      _layout.stride);
        is.read(reinterpret_cast<char *>(st.hot.data()),
                static_cast<std::streamsize>(st.hot.size() *
                                             sizeof(Real)));
        if (!is)
            return StoreLoadResult::fail(StoreLoadError::Truncated,
                                         "hot tier truncated");
        if (!coldDir.empty()) {
            if (!tryReadPod(is, st.spilled))
                return StoreLoadResult::fail(
                    StoreLoadError::Truncated,
                    "cold manifest truncated");
            std::uint64_t seg_count = 0;
            if (!tryReadPod(is, seg_count))
                return StoreLoadResult::fail(
                    StoreLoadError::Truncated,
                    "cold manifest truncated");
            const std::int64_t left = remainingBytes(is);
            if (left >= 0 &&
                seg_count > static_cast<std::uint64_t>(left) /
                                sizeof(std::uint64_t))
                return StoreLoadResult::fail(
                    StoreLoadError::Truncated,
                    "cold manifest truncated");
            st.segRecords.resize(seg_count);
            is.read(reinterpret_cast<char *>(st.segRecords.data()),
                    static_cast<std::streamsize>(
                        seg_count * sizeof(std::uint64_t)));
            if (!is)
                return StoreLoadResult::fail(
                    StoreLoadError::Truncated,
                    "cold manifest truncated");
        }
    }

    // Validate every shard's cold manifest before committing any:
    // validateManifest adopts nothing, so a mismatch here still
    // leaves the full store untouched.
    for (std::size_t s = 0; s < shards_.size(); ++s)
        if (shards_[s].cold) {
            const StoreLoadResult cold_result =
                shards_[s].cold->validateManifest(
                    staged[s].segRecords);
            if (!cold_result)
                return cold_result;
        }

    // Commit: nothing below can fail.
    _appended = appended;
    for (std::size_t s = 0; s < shards_.size(); ++s) {
        Shard &sh = shards_[s];
        StagedShard &st = staged[s];
        sh.appended = st.appended;
        if (!st.hot.empty())
            std::memcpy(sh.hot.data(), st.hot.data(),
                        st.hot.size() * sizeof(Real));
        if (sh.cold)
            sh.cold->adoptManifest(st.spilled, st.segRecords);
    }
    return StoreLoadResult::ok();
}

} // namespace marlin::replay

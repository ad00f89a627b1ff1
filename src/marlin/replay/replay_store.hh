/**
 * @file
 * The storage interface every replay consumer programs against.
 *
 * PR-10 splits replay into *policy* (samplers, which plan indices
 * over a logical slot space) and *storage* (this interface, which
 * maps logical slots to bytes). The two implementations are:
 *
 *   - MultiAgentBuffer  per-agent SoA rings (the baseline)
 *   - ShardedStore      record-major joint records in power-of-two
 *                       shards with an optional mmap-backed cold
 *                       tier; one all-hot shard is the Section IV-B2
 *                       reorganized layout of Figure 14
 *
 * Determinism contract (mirrors the PR-1 thread-count contract):
 * samplers draw over the logical index space [0, size()) only, and
 * storage maps logical slot -> shard purely arithmetically, so a
 * fixed seed yields bit-identical sample indices for ANY shard
 * count. Sharding changes *where* a record lives, never *which*
 * records a plan selects.
 */

#ifndef MARLIN_REPLAY_REPLAY_STORE_HH
#define MARLIN_REPLAY_REPLAY_STORE_HH

#include <iosfwd>
#include <string>
#include <vector>

#include "marlin/replay/transition.hh"

namespace marlin::replay
{

struct AgentBatch;
struct IndexPlan;
struct JointTransitionLayout;
class AccessTrace;

/** Typed outcome category of a store-level state restore. */
enum class StoreLoadError
{
    None = 0,
    /** Serialized geometry (capacity/shape/shards) differs from the
     *  constructed store. */
    ShapeMismatch,
    /** Stream ended before the serialized payload did. */
    Truncated,
    /** A backing file (cold segment) is missing or unreadable. */
    IoError,
    /** A CRC-guarded region failed its checksum. */
    Corrupt,
};

/**
 * Result of ReplayStore::loadState. Stores validate geometry and
 * stage the payload before committing anything, so a failed load —
 * a mid-payload truncation included — leaves the store's previous
 * contents intact, and the caller (core/checkpoint.cc) can map the
 * category onto its own CkptError without re-deriving the cause
 * from downstream shape checks.
 */
struct StoreLoadResult
{
    StoreLoadError error = StoreLoadError::None;
    std::string detail;

    explicit operator bool() const
    {
        return error == StoreLoadError::None;
    }

    static StoreLoadResult
    ok()
    {
        return {};
    }

    static StoreLoadResult
    fail(StoreLoadError e, std::string why)
    {
        return {e, std::move(why)};
    }
};

/**
 * Abstract replay storage: a ring of joint transitions addressed by
 * logical slot in [0, size()). All appends advance every agent in
 * lock-step, so one logical slot addresses the same timestep in
 * every agent's record — the common-indices property of Figure 5.
 */
class ReplayStore
{
  public:
    virtual ~ReplayStore() = default;

    /** Stable backend name for logs/metrics ("per_agent", ...). */
    virtual const char *backendName() const = 0;

    virtual std::size_t numAgents() const = 0;
    virtual const TransitionShape &agentShape(std::size_t agent) const = 0;

    /** Logical ring capacity in joint transitions. */
    virtual BufferIndex capacity() const = 0;

    /** Valid joint transitions currently stored. */
    virtual BufferIndex size() const = 0;

    /** Logical slot the next append writes (ring cursor). */
    virtual BufferIndex writeCursor() const = 0;

    bool empty() const { return size() == 0; }

    /** Append one joint transition (vectors indexed by agent). */
    virtual void append(const std::vector<std::vector<Real>> &obs,
                        const std::vector<std::vector<Real>> &actions,
                        const std::vector<Real> &rewards,
                        const std::vector<std::vector<Real>> &next_obs,
                        const std::vector<bool> &dones) = 0;

    /**
     * Append one packed joint record (the async drain path). @p rec
     * holds layout.stride Reals laid out by JointTransitionLayout;
     * allocation-free on a warm store.
     */
    virtual void appendRecord(const JointTransitionLayout &layout,
                              const Real *rec) = 0;

    /**
     * Gather the plan's rows for one agent into a dense batch.
     * Indices are logical slots and must be < size(). @p trace
     * optionally records the physical reads for memsim replay.
     */
    virtual void gatherAgent(std::size_t agent, const IndexPlan &plan,
                             AgentBatch &out,
                             AccessTrace *trace = nullptr) const = 0;

    /**
     * Gather the plan for every agent (out is resized to numAgents).
     * Overridden by record-major stores to touch each record once.
     */
    virtual void gatherAll(const IndexPlan &plan,
                           std::vector<AgentBatch> &out,
                           AccessTrace *trace = nullptr) const;

    /** Bytes of transition storage (RAM + cold tier). */
    virtual std::size_t storageBytes() const = 0;

    /** Serialize geometry, cursors and the valid transitions. */
    virtual void saveState(std::ostream &os) const = 0;

    /**
     * Restore state written by saveState on an identically
     * constructed store. Validates geometry before mutating.
     */
    virtual StoreLoadResult loadState(std::istream &is) = 0;
};

} // namespace marlin::replay

#endif // MARLIN_REPLAY_REPLAY_STORE_HH

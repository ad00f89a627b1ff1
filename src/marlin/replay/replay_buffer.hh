/**
 * @file
 * Per-agent experience replay buffer (structure-of-arrays ring).
 *
 * This is the baseline layout the paper characterizes: each agent's
 * transitions live in their own large arrays (paper: capacity 1e6),
 * and each trainer gathers mini-batches from *every* agent's buffer,
 * producing the O(N^2 * B) lookup-read-write pattern of Figure 5.
 */

#ifndef MARLIN_REPLAY_REPLAY_BUFFER_HH
#define MARLIN_REPLAY_REPLAY_BUFFER_HH

#include <iosfwd>
#include <vector>

#include "marlin/base/logging.hh"
#include "marlin/replay/replay_store.hh"
#include "marlin/replay/transition.hh"

namespace marlin::replay
{

/**
 * Fixed-capacity ring buffer of one agent's transitions, stored as
 * parallel flat arrays so a row gather is a few contiguous copies.
 */
class ReplayBuffer
{
  public:
    /**
     * @param shape Observation/action dimensions for this agent.
     * @param capacity Max transitions held (paper uses 1e6).
     */
    ReplayBuffer(TransitionShape shape, BufferIndex capacity);

    const TransitionShape &shape() const { return _shape; }
    BufferIndex capacity() const { return _capacity; }

    /** Number of valid transitions currently stored. */
    BufferIndex size() const { return _size; }

    /** Ring cursor (next write slot). */
    BufferIndex position() const { return pos; }

    bool empty() const { return _size == 0; }

    /** Append one transition, evicting the oldest when full. */
    void add(const Real *obs, const Real *action, Real reward,
             const Real *next_obs, bool done);

    /** Convenience overload for std::vector inputs. */
    void add(const std::vector<Real> &obs,
             const std::vector<Real> &action, Real reward,
             const std::vector<Real> &next_obs, bool done);

    /** View of the transition at ring slot @p idx. @pre idx < size. */
    TransitionView view(BufferIndex idx) const;

    // Raw row pointers (hot-path gather API; no bounds checks beyond
    // assertions so the sampler microbenches measure memory, not
    // branchy validation).
    const Real *
    obsRow(BufferIndex i) const
    {
        return obsData.data() + i * _shape.obsDim;
    }

    const Real *
    actRow(BufferIndex i) const
    {
        return actData.data() + i * _shape.actDim;
    }

    const Real *
    nextObsRow(BufferIndex i) const
    {
        return nextObsData.data() + i * _shape.obsDim;
    }

    Real rewardAt(BufferIndex i) const { return rewData[i]; }
    Real doneAt(BufferIndex i) const { return doneData[i]; }

    /** Total bytes of transition storage (for working-set reports). */
    std::size_t storageBytes() const;

    /**
     * Serialize shape, cursors and the valid transition region
     * (slots [0, size) — the ring only ever holds valid data there).
     */
    void saveState(std::ostream &os) const;

    /** A saveState payload that has been read but not applied. */
    struct StagedState
    {
        BufferIndex size = 0;
        BufferIndex pos = 0;
        std::vector<Real> obs, act, rew, nextObs, done;
    };

    /**
     * Read state written by saveState into @p out without touching
     * this buffer. Geometry (shape AND capacity) is validated before
     * any data region is read; a mismatch or a short read returns a
     * typed error.
     */
    StoreLoadResult stageState(std::istream &is,
                               StagedState &out) const;

    /** Apply a successfully staged state; cannot fail. */
    void commitState(const StagedState &staged);

  private:
    TransitionShape _shape;
    BufferIndex _capacity;
    BufferIndex _size = 0;
    BufferIndex pos = 0;

    std::vector<Real> obsData;
    std::vector<Real> actData;
    std::vector<Real> rewData;
    std::vector<Real> nextObsData;
    std::vector<Real> doneData;
};

/**
 * The set of per-agent replay buffers for one MARL training run.
 * All buffers advance in lock-step (one add per agent per env step),
 * so a single index addresses the same timestep in every buffer —
 * the property the common indices array of Figure 5 relies on.
 */
class MultiAgentBuffer : public ReplayStore
{
  public:
    /**
     * @param shapes One TransitionShape per agent.
     * @param capacity Shared ring capacity.
     */
    MultiAgentBuffer(std::vector<TransitionShape> shapes,
                     BufferIndex capacity);

    const char *backendName() const override { return "per_agent"; }
    std::size_t numAgents() const override { return buffers.size(); }
    BufferIndex capacity() const override { return _capacity; }

    const TransitionShape &
    agentShape(std::size_t agent) const override
    {
        return buffers[agent].shape();
    }

    /** Synchronized size (identical across agents). */
    BufferIndex size() const override;

    /** Ring cursor (identical across agents). */
    BufferIndex writeCursor() const override
    {
        return buffers.front().position();
    }

    ReplayBuffer &agent(std::size_t i) { return buffers[i]; }
    const ReplayBuffer &agent(std::size_t i) const { return buffers[i]; }

    /**
     * Append one joint transition (one record per agent).
     * All vectors are indexed by agent.
     */
    void append(const std::vector<std::vector<Real>> &obs,
                const std::vector<std::vector<Real>> &actions,
                const std::vector<Real> &rewards,
                const std::vector<std::vector<Real>> &next_obs,
                const std::vector<bool> &dones) override;

    /** Scatter one packed joint record into every agent's ring. */
    void appendRecord(const JointTransitionLayout &layout,
                      const Real *rec) override;

    void gatherAgent(std::size_t agent, const IndexPlan &plan,
                     AgentBatch &out,
                     AccessTrace *trace = nullptr) const override;

    void gatherAll(const IndexPlan &plan,
                   std::vector<AgentBatch> &out,
                   AccessTrace *trace = nullptr) const override;

    /** Sum of per-agent storage. */
    std::size_t storageBytes() const override;

    /** Serialize every agent's buffer state. */
    void saveState(std::ostream &os) const override;

    /**
     * Restore state written by saveState (same shapes/capacity).
     * Every agent is staged before any is committed, so a failed
     * load leaves all rings as they were.
     */
    StoreLoadResult loadState(std::istream &is) override;

  private:
    BufferIndex _capacity;
    std::vector<ReplayBuffer> buffers;
};

} // namespace marlin::replay

#endif // MARLIN_REPLAY_REPLAY_BUFFER_HH

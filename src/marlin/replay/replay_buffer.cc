#include "marlin/replay/replay_buffer.hh"

#include <algorithm>
#include <cstring>
#include <string>

#include "marlin/base/serialize.hh"
#include "marlin/replay/gather.hh"
#include "marlin/replay/transition_ring.hh"

namespace marlin::replay
{

namespace
{

/** Write the first @p count elements of @p data (no length prefix). */
void
writeRegion(std::ostream &os, const std::vector<Real> &data,
            std::size_t count)
{
    os.write(reinterpret_cast<const char *>(data.data()),
             static_cast<std::streamsize>(count * sizeof(Real)));
}

/** Read @p count elements into @p out; false on a short read. */
bool
readRegion(std::istream &is, std::vector<Real> &out, std::size_t count)
{
    out.resize(count);
    is.read(reinterpret_cast<char *>(out.data()),
            static_cast<std::streamsize>(count * sizeof(Real)));
    return static_cast<bool>(is);
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

ReplayBuffer::ReplayBuffer(TransitionShape shape, BufferIndex capacity)
    : _shape(shape), _capacity(capacity)
{
    MARLIN_ASSERT(capacity > 0, "replay buffer capacity must be > 0");
    MARLIN_ASSERT(shape.obsDim > 0 && shape.actDim > 0,
                  "replay buffer needs nonzero obs/act dims");
    obsData.resize(capacity * shape.obsDim);
    actData.resize(capacity * shape.actDim);
    rewData.resize(capacity);
    nextObsData.resize(capacity * shape.obsDim);
    doneData.resize(capacity);
}

void
ReplayBuffer::add(const Real *obs, const Real *action, Real reward,
                  const Real *next_obs, bool done)
{
    std::memcpy(obsData.data() + pos * _shape.obsDim, obs,
                _shape.obsDim * sizeof(Real));
    std::memcpy(actData.data() + pos * _shape.actDim, action,
                _shape.actDim * sizeof(Real));
    rewData[pos] = reward;
    std::memcpy(nextObsData.data() + pos * _shape.obsDim, next_obs,
                _shape.obsDim * sizeof(Real));
    doneData[pos] = done ? Real(1) : Real(0);

    pos = (pos + 1) % _capacity;
    if (_size < _capacity)
        ++_size;
}

void
ReplayBuffer::add(const std::vector<Real> &obs,
                  const std::vector<Real> &action, Real reward,
                  const std::vector<Real> &next_obs, bool done)
{
    MARLIN_ASSERT(obs.size() == _shape.obsDim &&
                      next_obs.size() == _shape.obsDim,
                  "observation size mismatch on add");
    MARLIN_ASSERT(action.size() == _shape.actDim,
                  "action size mismatch on add");
    add(obs.data(), action.data(), reward, next_obs.data(), done);
}

TransitionView
ReplayBuffer::view(BufferIndex idx) const
{
    MARLIN_ASSERT(idx < _size, "transition index out of range");
    return {obsRow(idx), actRow(idx), rewData[idx], nextObsRow(idx),
            doneData[idx]};
}

std::size_t
ReplayBuffer::storageBytes() const
{
    return (obsData.size() + actData.size() + rewData.size() +
            nextObsData.size() + doneData.size()) *
           sizeof(Real);
}

MultiAgentBuffer::MultiAgentBuffer(std::vector<TransitionShape> shapes,
                                   BufferIndex capacity)
    : _capacity(capacity)
{
    MARLIN_ASSERT(!shapes.empty(),
                  "MultiAgentBuffer needs at least one agent");
    buffers.reserve(shapes.size());
    for (const TransitionShape &s : shapes)
        buffers.emplace_back(s, capacity);
}

BufferIndex
MultiAgentBuffer::size() const
{
    return buffers.front().size();
}

void
MultiAgentBuffer::append(const std::vector<std::vector<Real>> &obs,
                         const std::vector<std::vector<Real>> &actions,
                         const std::vector<Real> &rewards,
                         const std::vector<std::vector<Real>> &next_obs,
                         const std::vector<bool> &dones)
{
    const std::size_t n = buffers.size();
    MARLIN_ASSERT(obs.size() == n && actions.size() == n &&
                      rewards.size() == n && next_obs.size() == n &&
                      dones.size() == n,
                  "per-agent vectors must match agent count");
    for (std::size_t i = 0; i < n; ++i) {
        buffers[i].add(obs[i], actions[i], rewards[i], next_obs[i],
                       dones[i]);
    }
}

void
MultiAgentBuffer::appendRecord(const JointTransitionLayout &layout,
                               const Real *rec)
{
    MARLIN_ASSERT(layout.agents.size() == buffers.size(),
                  "drain layout does not match agent count");
    for (std::size_t i = 0; i < buffers.size(); ++i) {
        const JointTransitionLayout::AgentBlock &b =
            layout.agents[i];
        buffers[i].add(rec + b.obs, rec + b.act, rec[b.reward],
                       rec + b.nextObs, rec[b.done] != Real(0));
    }
}

void
MultiAgentBuffer::gatherAgent(std::size_t agent,
                              const IndexPlan &plan, AgentBatch &out,
                              AccessTrace *trace) const
{
    gatherAgentBatch(buffers[agent], plan, out, trace);
}

void
MultiAgentBuffer::gatherAll(const IndexPlan &plan,
                            std::vector<AgentBatch> &out,
                            AccessTrace *trace) const
{
    gatherAllAgents(*this, plan, out, trace);
}

std::size_t
MultiAgentBuffer::storageBytes() const
{
    std::size_t total = 0;
    for (const ReplayBuffer &b : buffers)
        total += b.storageBytes();
    return total;
}

void
ReplayBuffer::saveState(std::ostream &os) const
{
    writePod<std::uint64_t>(os, _shape.obsDim);
    writePod<std::uint64_t>(os, _shape.actDim);
    writePod<std::uint64_t>(os, _capacity);
    writePod<std::uint64_t>(os, _size);
    writePod<std::uint64_t>(os, pos);
    // Valid transitions always occupy slots [0, size): the ring
    // cursor wraps only once every slot has been written.
    writeRegion(os, obsData, _size * _shape.obsDim);
    writeRegion(os, actData, _size * _shape.actDim);
    writeRegion(os, rewData, _size);
    writeRegion(os, nextObsData, _size * _shape.obsDim);
    writeRegion(os, doneData, _size);
}

StoreLoadResult
ReplayBuffer::stageState(std::istream &is, StagedState &out) const
{
    // Geometry gate: shape AND capacity must match the constructed
    // buffer before any data region is read. Capacity in particular
    // used to slip through to downstream shape checks; a buffer
    // restored at the wrong capacity would corrupt ring arithmetic
    // even when every serialized slot happens to fit.
    std::uint64_t obs_dim = 0, act_dim = 0, capacity = 0;
    if (!tryReadPod(is, obs_dim) || !tryReadPod(is, act_dim) ||
        !tryReadPod(is, capacity))
        return StoreLoadResult::fail(
            StoreLoadError::Truncated,
            "replay buffer header truncated");
    if (obs_dim != _shape.obsDim || act_dim != _shape.actDim)
        return StoreLoadResult::fail(
            StoreLoadError::ShapeMismatch,
            "replay checkpoint shape (" + std::to_string(obs_dim) +
                ", " + std::to_string(act_dim) +
                ") does not match buffer (" +
                std::to_string(_shape.obsDim) + ", " +
                std::to_string(_shape.actDim) + ")");
    if (capacity != _capacity)
        return StoreLoadResult::fail(
            StoreLoadError::ShapeMismatch,
            "replay checkpoint capacity " +
                std::to_string(capacity) +
                " does not match buffer capacity " +
                std::to_string(_capacity));
    std::uint64_t size = 0, cursor = 0;
    if (!tryReadPod(is, size) || !tryReadPod(is, cursor))
        return StoreLoadResult::fail(
            StoreLoadError::Truncated,
            "replay buffer cursors truncated");
    if (size > _capacity || cursor >= _capacity)
        return StoreLoadResult::fail(
            StoreLoadError::ShapeMismatch,
            "replay checkpoint cursors (size " +
                std::to_string(size) + ", pos " +
                std::to_string(cursor) + ") exceed capacity " +
                std::to_string(_capacity));
    out.size = size;
    out.pos = cursor;
    const std::size_t n = out.size;
    if (!readRegion(is, out.obs, n * _shape.obsDim) ||
        !readRegion(is, out.act, n * _shape.actDim) ||
        !readRegion(is, out.rew, n) ||
        !readRegion(is, out.nextObs, n * _shape.obsDim) ||
        !readRegion(is, out.done, n))
        return StoreLoadResult::fail(StoreLoadError::Truncated,
                                     "replay buffer data truncated");
    return StoreLoadResult::ok();
}

void
ReplayBuffer::commitState(const StagedState &staged)
{
    _size = staged.size;
    pos = staged.pos;
    std::copy(staged.obs.begin(), staged.obs.end(), obsData.begin());
    std::copy(staged.act.begin(), staged.act.end(), actData.begin());
    std::copy(staged.rew.begin(), staged.rew.end(), rewData.begin());
    std::copy(staged.nextObs.begin(), staged.nextObs.end(),
              nextObsData.begin());
    std::copy(staged.done.begin(), staged.done.end(),
              doneData.begin());
}

void
MultiAgentBuffer::saveState(std::ostream &os) const
{
    writePod<std::uint64_t>(os, buffers.size());
    for (const ReplayBuffer &b : buffers)
        b.saveState(os);
}

StoreLoadResult
MultiAgentBuffer::loadState(std::istream &is)
{
    std::uint64_t count = 0;
    if (!tryReadPod(is, count))
        return StoreLoadResult::fail(
            StoreLoadError::Truncated,
            "replay checkpoint agent count truncated");
    if (count != buffers.size())
        return StoreLoadResult::fail(
            StoreLoadError::ShapeMismatch,
            "replay checkpoint has " + std::to_string(count) +
                " agents, buffer set has " +
                std::to_string(buffers.size()));
    // Stage every agent before committing any: a geometry mismatch or
    // a short read on a later agent must leave all rings in sync.
    std::vector<ReplayBuffer::StagedState> staged(buffers.size());
    for (std::size_t i = 0; i < buffers.size(); ++i) {
        const StoreLoadResult result =
            buffers[i].stageState(is, staged[i]);
        if (!result)
            return result;
    }
    for (std::size_t i = 0; i < buffers.size(); ++i)
        buffers[i].commitState(staged[i]);
    return StoreLoadResult::ok();
}

} // namespace marlin::replay

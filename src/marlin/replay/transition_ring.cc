#include "marlin/replay/transition_ring.hh"

#include <algorithm>
#include <cstring>

#include "marlin/base/instant.hh"
#include "marlin/base/logging.hh"

namespace marlin::replay
{

JointTransitionLayout
JointTransitionLayout::fromShapes(const std::vector<TransitionShape> &shapes)
{
    JointTransitionLayout layout;
    layout.agents.reserve(shapes.size());
    std::size_t off = 0;
    for (const TransitionShape &s : shapes)
    {
        AgentBlock b;
        b.obsDim = s.obsDim;
        b.actDim = s.actDim;
        b.obs = off;
        off += s.obsDim;
        b.act = off;
        off += s.actDim;
        b.reward = off;
        off += 1;
        b.nextObs = off;
        off += s.obsDim;
        b.done = off;
        off += 1;
        layout.agents.push_back(b);
    }
    layout.stride = off;
    return layout;
}

void
packRecord(Real *dst, const JointTransitionLayout &layout,
           const std::vector<std::vector<Real>> &obs,
           const std::vector<std::vector<Real>> &actions,
           const std::vector<Real> &rewards,
           const std::vector<std::vector<Real>> &next_obs,
           const std::vector<bool> &dones)
{
    MARLIN_ASSERT(obs.size() == layout.agents.size(),
                  "packRecord: agent count mismatch");
    for (std::size_t i = 0; i < layout.agents.size(); ++i)
    {
        const auto &b = layout.agents[i];
        std::memcpy(dst + b.obs, obs[i].data(),
                    b.obsDim * sizeof(Real));
        std::memcpy(dst + b.act, actions[i].data(),
                    b.actDim * sizeof(Real));
        dst[b.reward] = rewards[i];
        std::memcpy(dst + b.nextObs, next_obs[i].data(),
                    b.obsDim * sizeof(Real));
        dst[b.done] = dones[i] ? Real(1) : Real(0);
    }
}

TransitionRing::TransitionRing(std::size_t stride,
                               std::size_t capacity_hint)
    : idx(capacity_hint), _stride(stride),
      data(idx.capacity() * stride), seqs(idx.capacity()),
      pushNs(idx.capacity())
{
    MARLIN_ASSERT(stride > 0, "TransitionRing: zero stride");
}

Real *
TransitionRing::tryBeginPush(std::uint64_t seq) noexcept
{
    if (idx.producerFree(staged) == 0)
    {
        dropped.fetch_add(1, std::memory_order_relaxed);
        return nullptr;
    }
    const std::size_t slot =
        static_cast<std::size_t>(idx.producerPos() + staged)
        & idx.mask();
    seqs[slot] = seq;
    // The transit clock starts when the producer claims the slot:
    // pack time is part of the age the learner measures at drain.
    pushNs[slot] = base::nowNsSinceStart();
    return data.data() + slot * _stride;
}

void
TransitionRing::commitPush() noexcept
{
    ++staged;
    pushed.fetch_add(1, std::memory_order_relaxed);
}

void
TransitionRing::publish() noexcept
{
    if (staged == 0)
        return;
    idx.publish(staged);
    staged = 0;
}

const Real *
TransitionRing::front(std::uint64_t *seq,
                      std::uint64_t *push_ns) noexcept
{
    if (idx.consumerAvailable() == 0)
        return nullptr;
    const std::size_t slot =
        static_cast<std::size_t>(idx.consumerPos()) & idx.mask();
    if (seq != nullptr)
        *seq = seqs[slot];
    if (push_ns != nullptr)
        *push_ns = pushNs[slot];
    return data.data() + slot * _stride;
}

void
TransitionRing::pop() noexcept
{
    const std::size_t slot =
        static_cast<std::size_t>(idx.consumerPos()) & idx.mask();
    const std::uint64_t seq = seqs[slot];
    if (haveExpected && seq > expectedSeq)
        seqGaps.fetch_add(seq - expectedSeq,
                          std::memory_order_relaxed);
    expectedSeq = seq + 1;
    haveExpected = true;
    idx.consume(1);
    popped.fetch_add(1, std::memory_order_relaxed);
}

} // namespace marlin::replay

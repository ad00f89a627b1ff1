/**
 * @file
 * Bounded lock-free SPSC ring of joint multi-agent transitions: the
 * conveyor belt between one async actor thread (producer) and the
 * learner thread (consumer).
 *
 * Each record is one environment step flattened to a fixed stride of
 * Reals — per agent: obs, action, reward, next obs, done — laid out
 * by JointTransitionLayout so records never wrap (slot = record).
 * Producers stamp every *generated* transition with a monotonically
 * increasing sequence number; when the ring is full the record is
 * dropped (the producer never blocks the rollout) but its sequence
 * number is still consumed, so the consumer sees a gap and the loss
 * is accounted, never silent:
 *
 *   pushed + dropped == sequence numbers issued
 *   seqGaps         == transitions the consumer observed missing
 *
 * The drain side (ReplayStore::appendRecord) copies a record into
 * replay through the raw-pointer add path, preserving the
 * zero-allocation steady state of the training loop.
 */

#ifndef MARLIN_REPLAY_TRANSITION_RING_HH
#define MARLIN_REPLAY_TRANSITION_RING_HH

#include <atomic>
#include <cstdint>
#include <vector>

#include "marlin/base/spsc_ring.hh"
#include "marlin/replay/replay_buffer.hh"
#include "marlin/replay/transition.hh"

namespace marlin::replay
{

/**
 * Flat layout of one joint transition record. Per agent, in agent
 * order: [obs | action | reward | next obs | done], all as Reals
 * (done is 0/1). stride is the total Real count of one record.
 */
struct JointTransitionLayout
{
    struct AgentBlock
    {
        std::size_t obs = 0;     ///< Offset of the observation.
        std::size_t act = 0;     ///< Offset of the action block.
        std::size_t reward = 0;  ///< Offset of the scalar reward.
        std::size_t nextObs = 0; ///< Offset of the next observation.
        std::size_t done = 0;    ///< Offset of the 0/1 done flag.
        std::size_t obsDim = 0;
        std::size_t actDim = 0;
    };

    std::vector<AgentBlock> agents;
    std::size_t stride = 0;

    static JointTransitionLayout
    fromShapes(const std::vector<TransitionShape> &shapes);
};

/**
 * Pack one joint transition into @p dst (stride Reals). Inputs use
 * the training loop's native per-agent shapes, so actors feed their
 * existing scratch buffers straight in.
 */
void packRecord(Real *dst, const JointTransitionLayout &layout,
                const std::vector<std::vector<Real>> &obs,
                const std::vector<std::vector<Real>> &actions,
                const std::vector<Real> &rewards,
                const std::vector<std::vector<Real>> &next_obs,
                const std::vector<bool> &dones);

/**
 * The SPSC transition ring. Exactly one producer thread and one
 * consumer thread; counters are readable from any thread (relaxed).
 *
 * Successor-producer takeover: "one producer thread" means one at a
 * time, not one forever. When a producer thread dies mid-batch, the
 * supervisor — after joining the dead thread, which is the
 * happens-before edge covering all its plain writes (staged count,
 * record payloads, seqs) — may call publish() to flush what the
 * dead producer committed but never published, and a restarted
 * producer thread (whose spawn is ordered after the join) continues
 * pushing where the old one stopped. Records the dead producer
 * began (tryBeginPush) but never committed are simply overwritten
 * by the successor's next push: commitPush is what stages a record,
 * so an uncommitted claim leaks nothing and loses only its sequence
 * number — which the gap accounting reports, never silently.
 */
class TransitionRing
{
  public:
    /**
     * @param stride Reals per record (layout.stride).
     * @param capacity_hint Records held; rounded up to a power of
     *        two.
     */
    TransitionRing(std::size_t stride, std::size_t capacity_hint);

    std::size_t capacity() const { return idx.capacity(); }
    std::size_t stride() const { return _stride; }

    /**
     * Producer: claim the next record slot for sequence number
     * @p seq. Returns the slot's stride-sized Real area to fill, or
     * nullptr when the ring is full — the record is then counted as
     * dropped and @p seq must NOT be reused for the next transition
     * (the skipped number is what the consumer's gap accounting
     * detects).
     */
    Real *tryBeginPush(std::uint64_t seq) noexcept;

    /** Producer: stage the record claimed by tryBeginPush. */
    void commitPush() noexcept;

    /**
     * Producer: make every staged record visible to the consumer
     * with one release store (batched publish). Safe to call with
     * nothing staged.
     */
    void publish() noexcept;

    /**
     * Consumer: the oldest unconsumed record, or nullptr when the
     * ring is empty. @p seq (optional) receives its sequence
     * number; @p push_ns (optional) its push-time stamp from the
     * shared base/instant.hh timebase, so the drain side can
     * attribute transit latency (now - push_ns) across the actor →
     * learner boundary. The pointer stays valid until pop().
     */
    const Real *front(std::uint64_t *seq = nullptr,
                      std::uint64_t *push_ns = nullptr) noexcept;

    /** Consumer: retire the front record and account seq gaps. */
    void pop() noexcept;

    // Accounting, readable from any thread.
    std::uint64_t
    pushedCount() const noexcept
    {
        return pushed.load(std::memory_order_relaxed);
    }
    std::uint64_t
    droppedCount() const noexcept
    {
        return dropped.load(std::memory_order_relaxed);
    }
    std::uint64_t
    poppedCount() const noexcept
    {
        return popped.load(std::memory_order_relaxed);
    }
    /** Transitions the consumer observed missing (sum of gaps). */
    std::uint64_t
    seqGapCount() const noexcept
    {
        return seqGaps.load(std::memory_order_relaxed);
    }
    /** Records published but not yet consumed (approximate). */
    std::size_t depth() const noexcept { return idx.size(); }

  private:
    base::SpscIndexRing idx;
    std::size_t _stride;
    std::vector<Real> data;           ///< capacity * stride Reals.
    std::vector<std::uint64_t> seqs;  ///< Per-slot sequence number.
    /** Per-slot push-time stamp (ns since process start), written
     *  at claim time like seqs and published by the same release
     *  store. */
    std::vector<std::uint64_t> pushNs;
    std::size_t staged = 0;           ///< Producer: unpublished.

    std::atomic<std::uint64_t> pushed{0};
    std::atomic<std::uint64_t> dropped{0};
    std::atomic<std::uint64_t> popped{0};
    std::atomic<std::uint64_t> seqGaps{0};
    /** Consumer: next expected sequence number (first pop seeds). */
    std::uint64_t expectedSeq = 0;
    bool haveExpected = false;
};

} // namespace marlin::replay

#endif // MARLIN_REPLAY_TRANSITION_RING_HH

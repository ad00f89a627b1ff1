/**
 * @file
 * Bounded lock-free single-producer/single-consumer ring primitives.
 *
 * The async actor-learner runtime moves every transition from an
 * actor thread to the learner thread through one of these rings, so
 * the design goals are the classic ones of realtime producer/consumer
 * pipelines (JACK-style audio rings, market-data replay buffers):
 *
 *  - exactly one producer thread and one consumer thread per ring;
 *    neither ever blocks the other;
 *  - power-of-two capacity so slot lookup is a mask, not a modulo;
 *  - the head and tail indices live on their own cache lines, and
 *    each side keeps a cached copy of the other side's index so the
 *    common case (space/data available) costs no cache-line bounce;
 *  - batched publish: a producer may stage several slots and make
 *    them visible with a single release store.
 *
 * SpscIndexRing owns only the index arithmetic; the replay layer
 * builds its fixed-stride transition ring (replay/transition_ring.hh)
 * on it.
 */

#ifndef MARLIN_BASE_SPSC_RING_HH
#define MARLIN_BASE_SPSC_RING_HH

#include <atomic>
#include <cstddef>
#include <cstdint>

namespace marlin::base
{

/** Smallest power of two >= @p v (and >= 2). */
constexpr std::size_t
ceilPow2(std::size_t v)
{
    std::size_t p = 2;
    while (p < v)
        p <<= 1;
    return p;
}

/**
 * Index bookkeeping for a bounded SPSC queue of power-of-two
 * capacity. Positions are monotonically increasing 64-bit counts
 * (they never wrap in any realistic run); the slot of a position is
 * position & mask().
 *
 * Thread contract: producerFree/producerPos/publish may only be
 * called from the producer thread; consumerAvailable/consumerPos/
 * consume only from the consumer thread; size() from anywhere.
 */
class SpscIndexRing
{
  public:
    /** @param capacity_hint Rounded up to the next power of two. */
    explicit SpscIndexRing(std::size_t capacity_hint)
        : cap(ceilPow2(capacity_hint < 2 ? 2 : capacity_hint))
    {
    }

    SpscIndexRing(const SpscIndexRing &) = delete;
    SpscIndexRing &operator=(const SpscIndexRing &) = delete;

    std::size_t capacity() const { return cap; }
    std::size_t mask() const { return cap - 1; }

    /**
     * Slots the producer may stage beyond what it already staged
     * (@p staged slots claimed but not yet published). Refreshes the
     * cached consumer index only when the fast path says "full", so
     * a non-full ring never touches the consumer's cache line.
     */
    std::size_t
    producerFree(std::size_t staged) noexcept
    {
        const std::uint64_t used = tailLocal + staged - cachedHead;
        if (used < cap)
            return cap - static_cast<std::size_t>(used);
        cachedHead = head.load(std::memory_order_acquire);
        const std::uint64_t used2 = tailLocal + staged - cachedHead;
        return used2 < cap ? cap - static_cast<std::size_t>(used2)
                           : 0;
    }

    /** Next unpublished position (producer thread only). */
    std::uint64_t producerPos() const noexcept { return tailLocal; }

    /** Make @p n staged slots visible to the consumer. */
    void
    publish(std::size_t n) noexcept
    {
        tailLocal += n;
        tail.store(tailLocal, std::memory_order_release);
    }

    /**
     * Published slots the consumer has not consumed yet. Refreshes
     * the cached producer index only when the fast path says
     * "empty".
     */
    std::size_t
    consumerAvailable() noexcept
    {
        if (cachedTail != headLocal)
            return static_cast<std::size_t>(cachedTail - headLocal);
        cachedTail = tail.load(std::memory_order_acquire);
        return static_cast<std::size_t>(cachedTail - headLocal);
    }

    /** Next unconsumed position (consumer thread only). */
    std::uint64_t consumerPos() const noexcept { return headLocal; }

    /** Retire @p n consumed slots, freeing them for the producer. */
    void
    consume(std::size_t n) noexcept
    {
        headLocal += n;
        head.store(headLocal, std::memory_order_release);
    }

    /**
     * Published-but-unconsumed count, readable from any thread
     * (approximate while both sides run; exact when quiesced).
     */
    std::size_t
    size() const noexcept
    {
        const std::uint64_t t = tail.load(std::memory_order_relaxed);
        const std::uint64_t h = head.load(std::memory_order_relaxed);
        return t >= h ? static_cast<std::size_t>(t - h) : 0;
    }

  private:
    // Shared indices, one cache line each so producer stores never
    // invalidate the consumer's line and vice versa.
    alignas(64) std::atomic<std::uint64_t> tail{0};
    alignas(64) std::atomic<std::uint64_t> head{0};
    // Producer-private mirror of tail plus cached head.
    alignas(64) std::uint64_t tailLocal = 0;
    std::uint64_t cachedHead = 0;
    // Consumer-private mirror of head plus cached tail.
    alignas(64) std::uint64_t headLocal = 0;
    std::uint64_t cachedTail = 0;

    std::size_t cap;
};

} // namespace marlin::base

#endif // MARLIN_BASE_SPSC_RING_HH

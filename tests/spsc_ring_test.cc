/**
 * @file
 * Unit tests for the lock-free SPSC primitives underneath the async
 * actor-learner runtime: index arithmetic across the power-of-two
 * wrap boundary, full/empty behaviour under a real two-thread
 * producer/consumer, the transition ring's sequence-gap accounting
 * on producer overrun, and FIFO drain-order determinism.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdint>
#include <stdexcept>
#include <thread>
#include <vector>

#include "marlin/base/spsc_ring.hh"
#include "marlin/base/worker_thread.hh"
#include "marlin/replay/transition_ring.hh"

namespace marlin
{
namespace
{

TEST(SpscRing, CeilPow2)
{
    EXPECT_EQ(base::ceilPow2(0), 2u);
    EXPECT_EQ(base::ceilPow2(1), 2u);
    EXPECT_EQ(base::ceilPow2(2), 2u);
    EXPECT_EQ(base::ceilPow2(3), 4u);
    EXPECT_EQ(base::ceilPow2(4), 4u);
    EXPECT_EQ(base::ceilPow2(5), 8u);
    EXPECT_EQ(base::ceilPow2(1000), 1024u);
    EXPECT_EQ(base::ceilPow2(1024), 1024u);
}

TEST(SpscRing, CapacityRoundsUpToPowerOfTwo)
{
    base::SpscRing<int> ring(5);
    EXPECT_EQ(ring.capacity(), 8u);
    base::SpscRing<int> tiny(0);
    EXPECT_EQ(tiny.capacity(), 2u);
}

TEST(SpscRing, RejectsPushWhenFullAndPopWhenEmpty)
{
    base::SpscRing<int> ring(4);
    int out = -1;
    EXPECT_FALSE(ring.tryPop(out));
    for (int i = 0; i < 4; ++i)
        EXPECT_TRUE(ring.tryPush(i));
    EXPECT_FALSE(ring.tryPush(99)) << "5th push into cap-4 ring";
    EXPECT_EQ(ring.size(), 4u);
    for (int i = 0; i < 4; ++i) {
        ASSERT_TRUE(ring.tryPop(out));
        EXPECT_EQ(out, i);
    }
    EXPECT_FALSE(ring.tryPop(out));
    EXPECT_TRUE(ring.empty());
}

TEST(SpscRing, SurvivesManyWrapsAroundThePow2Boundary)
{
    // Push/pop far more values than the capacity so the monotonic
    // 64-bit positions lap the slot array many times; FIFO order and
    // values must hold across every wrap.
    base::SpscRing<std::uint32_t> ring(8);
    std::uint32_t next_in = 0;
    std::uint32_t next_out = 0;
    // Keep the ring partially full so wraps happen mid-occupancy.
    for (int round = 0; round < 1000; ++round) {
        for (int i = 0; i < 5; ++i)
            ASSERT_TRUE(ring.tryPush(next_in++));
        std::uint32_t v = 0;
        for (int i = 0; i < 5; ++i) {
            ASSERT_TRUE(ring.tryPop(v));
            ASSERT_EQ(v, next_out++);
        }
    }
    EXPECT_TRUE(ring.empty());
    EXPECT_EQ(next_out, 5000u);
}

TEST(SpscRing, BatchPushPopRespectCapacityAndOrder)
{
    base::SpscRing<int> ring(8);
    std::vector<int> src(12);
    for (int i = 0; i < 12; ++i)
        src[static_cast<std::size_t>(i)] = i;
    // Only capacity() values fit; the rest are refused, not lost
    // silently — the return value says how many were taken.
    EXPECT_EQ(ring.pushBatch(src.data(), src.size()), 8u);
    std::vector<int> dst(12, -1);
    EXPECT_EQ(ring.popBatch(dst.data(), dst.size()), 8u);
    for (int i = 0; i < 8; ++i)
        EXPECT_EQ(dst[static_cast<std::size_t>(i)], i);
    EXPECT_TRUE(ring.empty());
}

TEST(SpscRing, TwoThreadStressPreservesEveryValueInOrder)
{
    // A real producer thread races a real consumer through a small
    // ring so both the full path (producer spins) and the empty path
    // (consumer spins) are exercised constantly. Every value must
    // arrive exactly once, in order.
    constexpr std::uint32_t kCount = 200000;
    base::SpscRing<std::uint32_t> ring(16);
    std::atomic<bool> failed{false};

    std::thread producer([&] {
        for (std::uint32_t v = 0; v < kCount; ++v) {
            while (!ring.tryPush(v))
                std::this_thread::yield();
        }
    });
    std::uint32_t expected = 0;
    while (expected < kCount) {
        std::uint32_t v = 0;
        if (!ring.tryPop(v)) {
            std::this_thread::yield();
            continue;
        }
        if (v != expected) {
            failed.store(true);
            break;
        }
        ++expected;
    }
    producer.join();
    EXPECT_FALSE(failed.load());
    EXPECT_EQ(expected, kCount);
    EXPECT_TRUE(ring.empty());
}

TEST(WorkerThread, RunsTheTaskAndJoinIsIdempotent)
{
    std::atomic<int> ran{0};
    {
        base::WorkerThread w("marlin-test",
                             [&] { ran.fetch_add(1); });
        w.join();
        w.join(); // second join must be a no-op
    }             // destructor join on a joined thread: also a no-op
    EXPECT_EQ(ran.load(), 1);
}

TEST(WorkerThread, TrampolineCapturesEscapedExceptions)
{
    base::WorkerThread w("marlin-crash", [] {
        throw std::runtime_error("injected boom");
    });
    w.join();
    EXPECT_TRUE(w.finished());
    EXPECT_TRUE(w.failed());
    EXPECT_EQ(w.errorMessage(), "injected boom");

    base::WorkerThread clean("marlin-clean", [] {});
    clean.join();
    EXPECT_TRUE(clean.finished());
    EXPECT_FALSE(clean.failed());
}

TEST(WorkerThread, TrampolineCapturesNonStdThrows)
{
    base::WorkerThread w("marlin-odd", [] { throw 42; });
    w.join();
    EXPECT_TRUE(w.failed());
    EXPECT_EQ(w.errorMessage(), "<unknown exception>");
}

TEST(WorkerThread, HeartbeatDistinguishesProgressFromSilence)
{
    base::Heartbeat hb;
    EXPECT_EQ(hb.lastBeatNs(), 0u) << "0 means never beaten";
    hb.beat();
    const std::uint64_t first = hb.lastBeatNs();
    EXPECT_GT(first, 0u);
    // A beating worker keeps nsSinceBeat small; silence grows it.
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
    EXPECT_GE(hb.nsSinceBeat(), 1000000u);
    hb.beat();
    EXPECT_GE(hb.lastBeatNs(), first) << "stamps are monotonic";
    EXPECT_LT(hb.nsSinceBeat(), 1000000000u);
}

TEST(WorkerThread, HeartbeatOutlivesTheThreadThatStampsIt)
{
    // The supervisor reads the final stamp of a dead thread; the
    // Heartbeat is owned by the watcher, not the worker.
    base::Heartbeat hb;
    {
        base::WorkerThread w("marlin-beat", [&hb] {
            hb.beat();
            throw std::runtime_error("died after beating");
        });
        w.join();
        EXPECT_TRUE(w.failed());
    }
    EXPECT_GT(hb.lastBeatNs(), 0u);
}

replay::JointTransitionLayout
tinyLayout()
{
    std::vector<replay::TransitionShape> shapes;
    shapes.push_back({2, 3}); // obsDim 2, actDim 3
    shapes.push_back({4, 3});
    return replay::JointTransitionLayout::fromShapes(shapes);
}

TEST(TransitionRing, LayoutOffsetsAreSequentialAndStrideMatches)
{
    const auto layout = tinyLayout();
    ASSERT_EQ(layout.agents.size(), 2u);
    const auto &a0 = layout.agents[0];
    EXPECT_EQ(a0.obs, 0u);
    EXPECT_EQ(a0.act, 2u);
    EXPECT_EQ(a0.reward, 5u);
    EXPECT_EQ(a0.nextObs, 6u);
    EXPECT_EQ(a0.done, 8u);
    const auto &a1 = layout.agents[1];
    EXPECT_EQ(a1.obs, 9u);
    // stride == sum of per-agent flat sizes.
    EXPECT_EQ(layout.stride, (2 * 2 + 3 + 2) + (2 * 4 + 3 + 2));
}

TEST(TransitionRing, PackDrainRoundTripsThroughReplay)
{
    const auto layout = tinyLayout();
    std::vector<std::vector<Real>> obs = {{1, 2}, {3, 4, 5, 6}};
    std::vector<std::vector<Real>> act = {{7, 8, 9}, {10, 11, 12}};
    std::vector<Real> rew = {13, 14};
    std::vector<std::vector<Real>> nxt = {{15, 16}, {17, 18, 19, 20}};
    std::vector<bool> done = {false, true};

    std::vector<Real> rec(layout.stride, Real(-1));
    replay::packRecord(rec.data(), layout, obs, act, rew, nxt, done);

    replay::MultiAgentBuffer buffers({{2, 3}, {4, 3}}, 16);
    replay::drainRecordInto(buffers, layout, rec.data());
    ASSERT_EQ(buffers.size(), 1u);

    const auto &b0 = buffers.agent(0);
    EXPECT_EQ(b0.obsRow(0)[0], Real(1));
    EXPECT_EQ(b0.obsRow(0)[1], Real(2));
    EXPECT_EQ(b0.actRow(0)[2], Real(9));
    EXPECT_EQ(b0.rewardAt(0), Real(13));
    EXPECT_EQ(b0.nextObsRow(0)[1], Real(16));
    EXPECT_EQ(b0.doneAt(0), Real(0));
    const auto &b1 = buffers.agent(1);
    EXPECT_EQ(b1.obsRow(0)[3], Real(6));
    EXPECT_EQ(b1.rewardAt(0), Real(14));
    EXPECT_EQ(b1.doneAt(0), Real(1));
}

TEST(TransitionRing, DrainOrderIsFifoDeterministic)
{
    // One producer, one consumer, no drops: records come out exactly
    // in push order with contiguous sequence numbers and zero gaps —
    // the property the 1-actor async configuration leans on.
    replay::TransitionRing ring(4, 64);
    for (std::uint64_t s = 0; s < 40; ++s) {
        Real *rec = ring.tryBeginPush(s);
        ASSERT_NE(rec, nullptr);
        rec[0] = static_cast<Real>(s);
        ring.commitPush();
        if (s % 8 == 7)
            ring.publish();
    }
    ring.publish();
    for (std::uint64_t s = 0; s < 40; ++s) {
        std::uint64_t seq = 0;
        const Real *rec = ring.front(&seq);
        ASSERT_NE(rec, nullptr);
        EXPECT_EQ(seq, s);
        EXPECT_EQ(rec[0], static_cast<Real>(s));
        ring.pop();
    }
    EXPECT_EQ(ring.front(), nullptr);
    EXPECT_EQ(ring.pushedCount(), 40u);
    EXPECT_EQ(ring.poppedCount(), 40u);
    EXPECT_EQ(ring.droppedCount(), 0u);
    EXPECT_EQ(ring.seqGapCount(), 0u);
}

TEST(TransitionRing, OverrunDropsAreCountedAsSequenceGaps)
{
    // Fill a capacity-4 ring, then overrun it: the drops must be
    // counted on the producer side AND observed as sequence gaps by
    // the consumer once the producer resumes after space frees up.
    replay::TransitionRing ring(2, 4);
    ASSERT_EQ(ring.capacity(), 4u);
    std::uint64_t seq = 0;
    auto push = [&](bool expect_ok) {
        Real *rec = ring.tryBeginPush(seq);
        if (rec != nullptr) {
            rec[0] = static_cast<Real>(seq);
            ring.commitPush();
        }
        EXPECT_EQ(rec != nullptr, expect_ok) << "seq " << seq;
        ++seq; // dropped or not, the sequence number is consumed
    };
    for (int i = 0; i < 4; ++i)
        push(true);
    ring.publish();
    push(false); // seq 4 dropped
    push(false); // seq 5 dropped
    EXPECT_EQ(ring.droppedCount(), 2u);

    // Drain two, freeing space; the next pushes land again.
    for (int i = 0; i < 2; ++i) {
        ASSERT_NE(ring.front(), nullptr);
        ring.pop();
    }
    push(true); // seq 6
    push(true); // seq 7
    ring.publish();

    // Drain the rest; crossing from seq 3 to seq 6 reveals the gap.
    std::vector<std::uint64_t> seen;
    std::uint64_t s = 0;
    while (ring.front(&s) != nullptr) {
        seen.push_back(s);
        ring.pop();
    }
    EXPECT_EQ(seen, (std::vector<std::uint64_t>{2, 3, 6, 7}));
    EXPECT_EQ(ring.seqGapCount(), 2u) << "seqs 4 and 5 went missing";
    EXPECT_EQ(ring.pushedCount() + ring.droppedCount(), seq);
}

TEST(TransitionRing, CapacityTwoRingKeepsExactAccounting)
{
    // The smallest legal ring (capacity hint 0 rounds up to 2):
    // full/empty transitions every push/pop pair, and overrun
    // accounting must stay exact at this degenerate size.
    replay::TransitionRing ring(2, 0);
    ASSERT_EQ(ring.capacity(), 2u);
    std::uint64_t seq = 0;
    std::uint64_t generated = 0;
    for (int round = 0; round < 100; ++round) {
        // Push until full, then one overrun.
        while (true) {
            Real *rec = ring.tryBeginPush(seq);
            ++seq;
            ++generated;
            if (rec == nullptr)
                break;
            rec[0] = static_cast<Real>(seq - 1);
            ring.commitPush();
        }
        ring.publish();
        // Drain everything.
        std::uint64_t s = 0;
        while (ring.front(&s) != nullptr) {
            EXPECT_LT(s, seq);
            ring.pop();
        }
    }
    EXPECT_EQ(ring.pushedCount() + ring.droppedCount(), generated);
    EXPECT_EQ(ring.poppedCount(), ring.pushedCount());
    EXPECT_LE(ring.seqGapCount(), ring.droppedCount());
    EXPECT_EQ(ring.depth(), 0u);
}

TEST(TransitionRing, SuccessorFlushesADeadProducersStagedRecords)
{
    // Satellite drill: the producer dies mid-batched-publish — some
    // records committed but never published, one claimed but never
    // committed. After joining the dead thread (the happens-before
    // edge), the supervisor publishes on its behalf and a successor
    // producer continues with the next sequence number; only the
    // uncommitted claim's seq may go missing, and the gap accounting
    // must say exactly that.
    replay::TransitionRing ring(2, 8);
    base::WorkerThread producer("marlin-dying", [&ring] {
        for (std::uint64_t s = 0; s < 3; ++s) {
            Real *rec = ring.tryBeginPush(s);
            ASSERT_NE(rec, nullptr);
            rec[0] = static_cast<Real>(s);
            rec[1] = Real(7);
            ring.commitPush();
        }
        // Claim seq 3 but die before commitPush: the slot must be
        // overwritten by the successor, not leak to the consumer.
        Real *rec = ring.tryBeginPush(3);
        ASSERT_NE(rec, nullptr);
        rec[0] = Real(-999);
        throw std::runtime_error("power cut mid-batch");
    });
    producer.join();
    ASSERT_TRUE(producer.failed());

    // Nothing is visible before the supervisor's flush.
    EXPECT_EQ(ring.front(), nullptr);
    ring.publish();

    // Successor takes over where the dead producer stopped. Seq 3
    // was consumed by the uncommitted claim, so it resumes at 4.
    for (std::uint64_t s = 4; s < 6; ++s) {
        Real *rec = ring.tryBeginPush(s);
        ASSERT_NE(rec, nullptr);
        rec[0] = static_cast<Real>(s);
        rec[1] = Real(7);
        ring.commitPush();
    }
    ring.publish();

    std::vector<std::uint64_t> seen;
    std::uint64_t s = 0;
    while (ring.front(&s) != nullptr) {
        seen.push_back(s);
        ring.pop();
    }
    EXPECT_EQ(seen, (std::vector<std::uint64_t>{0, 1, 2, 4, 5}));
    EXPECT_EQ(ring.seqGapCount(), 1u) << "only the uncommitted seq 3";
    EXPECT_EQ(ring.pushedCount(), 5u);
    EXPECT_EQ(ring.poppedCount(), 5u);
}

TEST(TransitionRing, TwoThreadDrainAccountsEveryRecord)
{
    // Producer thread generating records full tilt against a slow
    // consumer: whatever happens, pushed + dropped == generated and
    // the consumer pops exactly the pushed ones.
    constexpr std::uint64_t kGenerate = 50000;
    replay::TransitionRing ring(2, 32);
    std::atomic<bool> producer_done{false};
    base::WorkerThread producer("marlin-prod", [&] {
        for (std::uint64_t s = 0; s < kGenerate; ++s) {
            Real *rec = ring.tryBeginPush(s);
            if (rec != nullptr) {
                rec[0] = static_cast<Real>(s);
                rec[1] = Real(0);
                ring.commitPush();
            }
            if (s % 8 == 7)
                ring.publish();
        }
        ring.publish();
        producer_done.store(true, std::memory_order_release);
    });

    std::uint64_t popped = 0;
    std::uint64_t last_seq = 0;
    bool have_last = false;
    while (true) {
        // Same protocol as the learner: read the retirement flag
        // BEFORE probing the ring, so "done + empty" proves the
        // final publish has been observed.
        const bool finished =
            producer_done.load(std::memory_order_acquire);
        std::uint64_t s = 0;
        const Real *rec = ring.front(&s);
        if (rec == nullptr) {
            if (finished)
                break;
            std::this_thread::yield();
            continue;
        }
        if (have_last) {
            EXPECT_GT(s, last_seq) << "sequence must be increasing";
        }
        last_seq = s;
        have_last = true;
        ++popped;
        ring.pop();
    }
    producer.join();
    EXPECT_EQ(ring.pushedCount() + ring.droppedCount(), kGenerate);
    EXPECT_EQ(popped, ring.pushedCount());
    EXPECT_EQ(ring.poppedCount(), popped);
    // Consumer-observed gaps cannot exceed the producer's drops.
    EXPECT_LE(ring.seqGapCount(), ring.droppedCount());
}

} // namespace
} // namespace marlin

/**
 * @file
 * Deterministic fault injection for crash-safety and chaos testing.
 *
 * Long MARL runs die in more ways than a unit test naturally covers:
 * the process is killed mid-step, a checkpoint write fails partway
 * through, bytes rot on disk — and, once the runtime is multi-
 * threaded, an actor thread crashes, wedges, or emits poisoned
 * transitions. FaultInjector reproduces all of them on demand,
 * at fixed points so a failing test replays bit-identically:
 *
 *  - kill-at-step-N: the training loop polls onStep() once per
 *    environment step and abandons the run when the armed step is
 *    reached (equivalent to SIGKILL as far as on-disk state goes);
 *  - fail-the-Kth-write: FailpointStreambuf wraps a checkpoint
 *    stream and fails write K and everything after it, like a disk
 *    going away mid-checkpoint;
 *  - corrupt-byte-M: corruptFileByte() flips bits of a file in
 *    place, exercising the CRC detection and latest->previous
 *    fallback paths;
 *  - chaos schedule: a list of one-shot FaultEvents (kill an actor
 *    thread at its Nth local step, stall it for M ms, corrupt the
 *    transition it is about to publish, kill the learner after D
 *    drained records, delay a snapshot publication) polled from the
 *    async runtime's hook points.
 *
 * Thread contract: arm everything (armKillAtStep, scheduleFault,
 * parseChaosSpec...) before worker threads start. The hook methods
 * (onStep, onWrite, onActorStep, onLearnerDrain, onSnapshotPublish)
 * and all counters are then safe to call concurrently from any
 * thread — counters are relaxed atomics, and each scheduled event
 * fires exactly once via a compare-exchange on its own flag.
 */

#ifndef MARLIN_BASE_FAULT_INJECTOR_HH
#define MARLIN_BASE_FAULT_INJECTOR_HH

#include <array>
#include <atomic>
#include <deque>
#include <stdexcept>
#include <streambuf>
#include <string>
#include <vector>

#include "marlin/base/types.hh"

namespace marlin::base
{

/** What a scheduled chaos event does when it fires. */
enum class FaultKind : std::uint8_t
{
    KillActor,         ///< Throw InjectedFault on the actor thread.
    StallActor,        ///< Sleep the actor thread for millis.
    CorruptTransition, ///< Poison the next packed record with NaN.
    KillLearner,       ///< Throw InjectedFault on the learner thread.
    DelaySnapshot,     ///< Sleep millis before a snapshot publish.
};

inline constexpr std::size_t numFaultKinds = 5;

/** Stable lower-case name for a FaultKind ("kill-actor"). */
const char *faultKindName(FaultKind kind);

/** One scheduled one-shot fault. */
struct FaultEvent
{
    FaultKind kind = FaultKind::KillActor;
    /** Target actor (ignored for learner/snapshot kinds). */
    std::size_t actorId = 0;
    /**
     * When to fire: actor-local env step for actor kinds, total
     * drained records for KillLearner, publication ordinal for
     * DelaySnapshot. Fires at the first hook call with
     * progress >= atStep.
     */
    std::uint64_t atStep = 0;
    /** Stall/delay duration (StallActor, DelaySnapshot). */
    std::uint64_t millis = 0;
};

/** What an actor must do right now (merged over fired events). */
struct ActorFaultAction
{
    bool kill = false;
    bool corrupt = false;
    std::uint64_t stallMs = 0;
};

/**
 * Thrown by workers when a scheduled kill fires; the WorkerThread
 * trampoline catches it and the supervisor applies policy.
 */
class InjectedFault : public std::runtime_error
{
  public:
    explicit InjectedFault(const std::string &what_arg)
        : std::runtime_error(what_arg)
    {
    }
};

/** Reproducible source of injected faults. */
class FaultInjector
{
  public:
    /** Arm a simulated kill at absolute environment step @p step. */
    void
    armKillAtStep(StepCount step)
    {
        killStep.store(step, std::memory_order_relaxed);
        killArmed.store(true, std::memory_order_release);
    }

    /**
     * Training-loop hook, called once per environment step.
     * @return true exactly when the armed kill step is reached (the
     *         caller must then abandon the run without cleanup).
     */
    bool onStep();

    /** Arm a failure of the @p kth stream write (1-based). */
    void
    armFailAtWrite(std::uint64_t kth)
    {
        failWrite.store(kth, std::memory_order_relaxed);
        failArmed.store(true, std::memory_order_release);
    }

    /**
     * Stream-wrapper hook, called before every buffered write.
     * @return false when the write (and, sticky, every later one)
     *         must fail.
     */
    bool onWrite();

    // --- Chaos schedule (async runtime) ---------------------------

    /** Append one event to the schedule. Arm before threads start. */
    void scheduleFault(const FaultEvent &event);

    /**
     * Parse a chaos spec into scheduled events. Grammar, comma
     * separated, one token per event:
     *
     *   kill:<actor>@<step>           kill actor at local step
     *   stall:<actor>@<step>:<ms>     stall actor for ms
     *   corrupt:<actor>@<step>        NaN-poison one transition
     *   kill-learner@<drained>        kill learner thread
     *   delay-snap@<ordinal>:<ms>     delay a snapshot publish
     *
     * e.g. "kill:1@120,stall:2@200:50,corrupt:0@300". On a malformed
     * token nothing is scheduled, @p error (optional) gets a
     * description and false is returned.
     */
    bool parseChaosSpec(const std::string &spec,
                        std::string *error = nullptr);

    /** Scheduled events (armed + already fired), for logging. */
    std::vector<FaultEvent> scheduledFaults() const;

    /**
     * Actor hook, called once per env step on the actor thread.
     * Fires every due unfired event for @p actor_id and merges them:
     * stall first, then corrupt, then kill, so one call can both
     * poison a record and die. The caller sleeps stallMs itself
     * (keeps this layer clock-free), corrupts its next packed
     * record, and throws InjectedFault on kill.
     */
    ActorFaultAction onActorStep(std::size_t actor_id,
                                 std::uint64_t local_step);

    /**
     * Learner hook, called per drain cycle with total drained
     * records. @return true when a KillLearner event fires (the
     * caller throws).
     */
    bool onLearnerDrain(std::uint64_t drained_total);

    /**
     * Learner hook, called before snapshot publication @p ordinal
     * (1-based). @return ms to sleep before publishing (0 = none).
     */
    std::uint64_t onSnapshotPublish(std::uint64_t ordinal);

    /** Times a fault of @p kind fired (any thread, relaxed). */
    std::uint64_t
    tripCount(FaultKind kind) const
    {
        return trips[static_cast<std::size_t>(kind)].load(
            std::memory_order_relaxed);
    }

  private:
    struct ScheduledFault
    {
        FaultEvent event;
        std::atomic<bool> fired{false};

        ScheduledFault() = default;
        explicit ScheduledFault(const FaultEvent &e) : event(e) {}
    };

    /** CAS @p slot unfired->fired; counts the trip on success. */
    bool tryFire(ScheduledFault &slot);

    std::atomic<StepCount> killStep{0};
    std::atomic<bool> killArmed{false};
    std::atomic<StepCount> steps{0};
    std::atomic<std::uint64_t> failWrite{0};
    std::atomic<bool> failArmed{false};
    std::atomic<bool> writeDead{false};
    std::atomic<std::uint64_t> writes{0};

    /** deque: scheduleFault never invalidates slots' atomics.
     *  Mutated only while single-threaded (arm-before-run). */
    std::deque<ScheduledFault> schedule;
    std::array<std::atomic<std::uint64_t>, numFaultKinds> trips{};
};

/**
 * XOR one byte of @p path at @p offset with @p mask in place.
 * @return false when the file cannot be opened or is too short.
 */
bool corruptFileByte(const std::string &path, std::uint64_t offset,
                     unsigned char mask = 0xff);

/**
 * streambuf decorator that consults a FaultInjector before every
 * write. After the armed write fails the buffer stays dead, so the
 * wrapped stream's badbit reports the failure to the checkpoint
 * writer exactly like a real ENOSPC/EIO would.
 */
class FailpointStreambuf : public std::streambuf
{
  public:
    /**
     * @param inner_buf Destination buffer (not owned).
     * @param injector Fault source (not owned; may be null = passthrough).
     */
    FailpointStreambuf(std::streambuf *inner_buf,
                       FaultInjector *injector_in)
        : inner(inner_buf), injector(injector_in)
    {
    }

  protected:
    int_type overflow(int_type ch) override;
    std::streamsize xsputn(const char *s, std::streamsize n) override;
    int sync() override;

  private:
    std::streambuf *inner;
    FaultInjector *injector;
};

} // namespace marlin::base

#endif // MARLIN_BASE_FAULT_INJECTOR_HH

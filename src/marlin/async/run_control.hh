/**
 * @file
 * Shared run coordination for the async actor-learner runtime.
 */

#ifndef MARLIN_ASYNC_RUN_CONTROL_HH
#define MARLIN_ASYNC_RUN_CONTROL_HH

#include <atomic>
#include <cstdint>
#include <mutex>
#include <utility>
#include <vector>

#include "marlin/base/types.hh"

namespace marlin::async
{

/**
 * The one piece of state every async thread shares. Actors claim
 * global episode indices — normally a fetch_add on episodesClaimed
 * (the claimed index drives the epsilon decay schedule, so
 * exploration anneals over global progress exactly like the lockstep
 * loop), but indices abandoned by a crashed or degraded actor go
 * into a reclaim pool that claim() drains first, so the fleet still
 * delivers exactly episodeTarget completed episodes. An actor retires
 * (decrements activeActors) once completedCount reaches the target;
 * the learner exits when every actor has retired and the rings are
 * drained. stop is the cooperative emergency brake (health-guard
 * halt, learner death).
 */
struct RunControl
{
    std::atomic<std::uint64_t> episodesClaimed{0};
    std::uint64_t episodeTarget = 0;
    /** Episodes whose reward has been recorded. */
    std::atomic<std::uint64_t> completedCount{0};
    std::atomic<std::size_t> activeActors{0};
    std::atomic<bool> stop{false};
    /**
     * Start barrier: actors that have not yet claimed their first
     * episodes. Armed (set to the actor count) only while a
     * FaultInjector is attached, and no actor steps before it
     * drains, so a fault scheduled at an actor's local step fires
     * whatever the OS scheduler does. Unarmed, one actor could claim
     * every episode before a peer is first scheduled.
     */
    std::atomic<std::size_t> startPending{0};

    /** Completed episodes as (global episode index, mean reward). */
    std::mutex rewardMutex;
    std::vector<std::pair<std::uint64_t, Real>> episodeRewards;
    /** Episode indices abandoned mid-flight (guarded by
     *  rewardMutex), waiting to be re-claimed by a healthy actor. */
    std::vector<std::uint64_t> reclaimable;

    /**
     * Actor side: claim the next episode index, preferring
     * abandoned ones. @return false when every index up to the
     * target is claimed and nothing is reclaimable — the caller
     * should idle (indices may still be reclaimed later) until
     * completedCount reaches the target.
     */
    bool
    claim(std::uint64_t &index)
    {
        {
            const std::lock_guard<std::mutex> lock(rewardMutex);
            if (!reclaimable.empty())
            {
                index = reclaimable.back();
                reclaimable.pop_back();
                return true;
            }
        }
        // Load-first keeps the counter from racing far past the
        // target when many actors poll after exhaustion.
        if (episodesClaimed.load(std::memory_order_relaxed) >=
            episodeTarget)
            return false;
        const std::uint64_t e = episodesClaimed.fetch_add(
            1, std::memory_order_relaxed);
        if (e >= episodeTarget)
            return false;
        index = e;
        return true;
    }

    /** Return an abandoned episode index to the pool. */
    void
    reclaim(std::uint64_t index)
    {
        const std::lock_guard<std::mutex> lock(rewardMutex);
        reclaimable.push_back(index);
    }

    /** Actor side: record a finished episode's mean reward. */
    void
    recordEpisode(std::uint64_t index, Real mean_reward)
    {
        {
            const std::lock_guard<std::mutex> lock(rewardMutex);
            episodeRewards.emplace_back(index, mean_reward);
        }
        completedCount.fetch_add(1, std::memory_order_release);
    }

    /** True once every targeted episode has a recorded reward. */
    bool
    done() const
    {
        return completedCount.load(std::memory_order_acquire) >=
               episodeTarget;
    }
};

} // namespace marlin::async

#endif // MARLIN_ASYNC_RUN_CONTROL_HH

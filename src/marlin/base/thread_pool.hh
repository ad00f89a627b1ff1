/**
 * @file
 * Deterministic fixed-size thread pool for the training hot path.
 *
 * The paper's characterization shows "update all trainers" dominating
 * end-to-end time and growing with agent count; the work inside it
 * (per-agent critic/actor updates, GEMM row blocks) is
 * embarrassingly parallel over disjoint outputs. ThreadPool
 * exposes exactly that shape: a blocking parallelFor over an index
 * range, statically partitioned so every index computes the same
 * floating-point operations in the same order regardless of thread
 * count — results are bit-identical whether the pool runs 1 or 64
 * threads.
 *
 * Design rules that keep it deterministic and safe:
 *  - Callers must only write outputs disjoint per index; the pool
 *    adds no synchronization around the callback.
 *  - With 1 thread the callback runs fully inline on the caller; no
 *    worker threads are ever spawned.
 *  - Nested parallelFor calls (a worker re-entering the pool, e.g.
 *    a parallel GEMM inside a parallel per-agent update) are
 *    rejected as parallel dispatches and run inline on the worker
 *    instead of deadlocking on the pool's own capacity.
 *  - The first exception thrown by any chunk is captured and
 *    rethrown on the calling thread after all workers finish.
 */

#ifndef MARLIN_BASE_THREAD_POOL_HH
#define MARLIN_BASE_THREAD_POOL_HH

#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <functional>
#include <memory>
#include <mutex>
#include <thread>
#include <type_traits>
#include <vector>

namespace marlin::base
{

/** Fixed-size worker pool with a deterministic blocking parallelFor. */
class ThreadPool
{
  public:
    /**
     * Callback for one contiguous index chunk [begin, end). Chunks
     * never overlap, so per-index outputs need no locking.
     */
    using RangeFn = std::function<void(std::size_t, std::size_t)>;

    /**
     * Type-erased chunk callback: @p ctx is the callable the
     * template parallelFor captured by address. Using a raw function
     * pointer instead of std::function keeps dispatch free of heap
     * allocations for any capture size — std::function's small-buffer
     * optimization tops out around two pointers, and several hot-path
     * callers (GEMM row blocks, per-agent updates) capture more.
     */
    using RawRangeFn = void (*)(void *ctx, std::size_t begin,
                                std::size_t end);

    /**
     * @param threads Worker count including the calling thread;
     *        clamped to >= 1. With 1, no OS threads are created and
     *        parallelFor degenerates to a plain loop.
     */
    explicit ThreadPool(std::size_t threads);

    ThreadPool(const ThreadPool &) = delete;
    ThreadPool &operator=(const ThreadPool &) = delete;

    ~ThreadPool();

    /** Configured parallelism (spawned workers + the caller). */
    std::size_t numThreads() const { return _threads; }

    /**
     * Run @p fn over [begin, end), blocking until every index is
     * done. The range splits into at most numThreads() chunks of at
     * least @p grain indices each (grain 0 counts as 1); chunk
     * boundaries depend only on the range, grain and thread count,
     * never on runtime timing. Empty ranges return immediately.
     * Called from a pool worker, the whole range runs inline.
     *
     * @p fn is any callable taking (begin, end); it is captured by
     * reference for the duration of the call (parallelFor blocks, so
     * the reference cannot dangle) and dispatch performs no heap
     * allocation regardless of capture size.
     */
    template <typename F>
    void
    parallelFor(std::size_t begin, std::size_t end, std::size_t grain,
                F &&fn)
    {
        using Fn = std::remove_reference_t<F>;
        parallelForRaw(
            begin, end, grain,
            [](void *ctx, std::size_t c0, std::size_t c1) {
                (*static_cast<Fn *>(ctx))(c0, c1);
            },
            const_cast<void *>(
                static_cast<const void *>(std::addressof(fn))));
    }

    /** Type-erased core of parallelFor; same contract. */
    void parallelForRaw(std::size_t begin, std::size_t end,
                        std::size_t grain, RawRangeFn fn, void *ctx);

    /** True when the calling thread is a pool worker of any pool. */
    static bool inWorker();

    /**
     * Process-wide pool shared by GEMM, trainer updates and vector
     * envs. First use builds it with threads from setGlobalThreads(),
     * else the MARLIN_THREADS environment variable, else hardware
     * concurrency.
     */
    static ThreadPool &global();

    /**
     * Resize the global pool (0 = auto). Not thread-safe against
     * concurrent global() users — call it at startup or between
     * training phases, as the CLI --threads flag does.
     */
    static void setGlobalThreads(std::size_t threads);

    /** Thread count the global pool has (or would be built with). */
    static std::size_t globalThreads();

    /**
     * Observer invoked after each executed chunk with its start time
     * and duration (nanoseconds on the instant.hh timebase). The base
     * layer knows nothing about tracing; the obs subsystem installs a
     * hook here when --trace enables the trace ring. Must be cheap
     * and must not touch the pool. nullptr (the default) costs one
     * relaxed load per chunk.
     */
    using TaskHook = void (*)(std::uint64_t start_ns,
                              std::uint64_t dur_ns);

    static void setTaskHook(TaskHook hook) noexcept;

  private:
    struct Job
    {
        RawRangeFn fn = nullptr;
        void *ctx = nullptr;
        std::size_t begin = 0;
        std::size_t end = 0;
        std::size_t grain = 1;
        std::size_t chunks = 0;
        std::atomic<std::size_t> nextChunk{0};
        std::atomic<std::size_t> pendingChunks{0};
        /** Workers currently inside this job; guarded by mutex. */
        std::size_t activeWorkers = 0;
        std::exception_ptr error;
        std::mutex errorMutex;
    };

    void workerLoop();
    void runChunks(Job &j);

    std::size_t _threads;
    std::vector<std::thread> workers;

    std::mutex mutex;
    std::condition_variable wakeWorkers;
    std::condition_variable jobDone;
    Job *job = nullptr;          ///< Current dispatch, null when idle.
    std::uint64_t generation = 0; ///< Bumped per dispatch to wake workers.
    bool stopping = false;
};

} // namespace marlin::base

#endif // MARLIN_BASE_THREAD_POOL_HH

/**
 * @file
 * Always-on metrics registry: counters, gauges and fixed-bucket
 * histograms registered by name.
 *
 * Design constraints, in priority order:
 *
 *  1. Hot-path writes are lock-free and wait-free: a Counter::add is
 *     one relaxed fetch_add on a cache-line-padded per-thread shard,
 *     so replay gathers, kernel shims and health guards can count
 *     unconditionally without perturbing the deterministic training
 *     path (metrics never feed back into any computation).
 *  2. Reads merge the shards, so value() is exact once the writers
 *     have quiesced (e.g. after a parallelFor barrier) and merely
 *     approximate while they run — fine for telemetry.
 *  3. Registration is cold and locked. Instrumentation sites cache
 *     the returned reference in a function-local static, so the name
 *     lookup happens once per site per process.
 *
 * Typical instrumentation site:
 *
 *   static obs::Counter &bytes =
 *       obs::Registry::instance().counter("replay.gather.bytes");
 *   bytes.add(row_bytes);
 */

#ifndef MARLIN_OBS_METRICS_HH
#define MARLIN_OBS_METRICS_HH

#include <array>
#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

namespace marlin::obs
{

/** Shards per metric; writers hash their thread tag into one. */
inline constexpr std::size_t metricShards = 16;

/** Monotonically increasing event/volume count. */
class Counter
{
  public:
    /** Add @p n. Lock-free; callable from any thread. */
    void
    add(std::uint64_t n = 1) noexcept
    {
        shards[shardIndex()].v.fetch_add(n,
                                         std::memory_order_relaxed);
    }

    /** Sum over all shards. */
    std::uint64_t
    value() const noexcept
    {
        std::uint64_t total = 0;
        for (const Shard &s : shards)
            total += s.v.load(std::memory_order_relaxed);
        return total;
    }

    const std::string &name() const { return _name; }

    /** Zero all shards (tests / per-run deltas only). */
    void
    reset() noexcept
    {
        for (Shard &s : shards)
            s.v.store(0, std::memory_order_relaxed);
    }

  private:
    friend class Registry;
    explicit Counter(std::string name) : _name(std::move(name)) {}

    struct alignas(64) Shard
    {
        std::atomic<std::uint64_t> v{0};
    };

    static std::size_t shardIndex() noexcept;

    std::string _name;
    std::array<Shard, metricShards> shards{};
};

/** Latest-value metric (replay fill level, active ISA, ...). */
class Gauge
{
  public:
    void
    set(double v) noexcept
    {
        _v.store(v, std::memory_order_relaxed);
    }

    double
    value() const noexcept
    {
        return _v.load(std::memory_order_relaxed);
    }

    const std::string &name() const { return _name; }

    void reset() noexcept { set(0.0); }

  private:
    friend class Registry;
    explicit Gauge(std::string name) : _name(std::move(name)) {}

    std::string _name;
    std::atomic<double> _v{0.0};
};

/**
 * Fixed-bucket histogram with Prometheus "le" semantics: bucket i
 * counts observations v <= upperBound(i); one implicit overflow
 * bucket catches everything above the last bound. Bucket counts are
 * plain relaxed atomics (histograms sit on warm paths, not the
 * kernel-call hot path).
 */
class Histogram
{
  public:
    void observe(double v) noexcept;

    /** Explicit bounds + the overflow bucket. */
    std::size_t numBuckets() const { return counts.size(); }

    /** Upper bound of bucket @p i; +inf for the overflow bucket. */
    double bucketUpperBound(std::size_t i) const;

    std::uint64_t
    bucketCount(std::size_t i) const noexcept
    {
        return counts[i].load(std::memory_order_relaxed);
    }

    std::uint64_t totalCount() const noexcept;

    /** Sum of all observed values (CAS loop; exact when quiesced). */
    double
    sum() const noexcept
    {
        return _sum.load(std::memory_order_relaxed);
    }

    const std::string &name() const { return _name; }

    void reset() noexcept;

  private:
    friend class Registry;
    Histogram(std::string name, std::vector<double> bounds);

    std::string _name;
    std::vector<double> bounds; ///< Ascending upper bounds.
    std::vector<std::atomic<std::uint64_t>> counts;
    std::atomic<double> _sum{0.0};
};

/** One metric's merged state, for telemetry/export. */
struct MetricSample
{
    enum class Kind { Counter, Gauge, Histogram };

    std::string name;
    Kind kind = Kind::Counter;
    /** Counter value or histogram total count. */
    std::uint64_t count = 0;
    /** Gauge value or histogram sum. */
    double value = 0.0;
    /** Histogram only: (upper bound, count) per bucket. */
    std::vector<std::pair<double, std::uint64_t>> buckets;
};

/**
 * Process-wide name -> metric table. References returned by the
 * lookup methods stay valid for the process lifetime; re-registering
 * a name returns the existing metric (fatal on kind mismatch).
 */
class Registry
{
  public:
    static Registry &instance();

    Counter &counter(const std::string &name);
    Gauge &gauge(const std::string &name);
    /**
     * @param bounds Ascending bucket upper bounds; required on first
     *        registration, ignored (may be empty) afterwards.
     */
    Histogram &histogram(const std::string &name,
                         std::vector<double> bounds = {});

    /** Merged view of every registered metric, sorted by name. */
    std::vector<MetricSample> snapshot() const;

    /** Zero every metric (tests and per-run deltas). */
    void resetAll();

  private:
    Registry() = default;

    mutable std::mutex mutex;
    std::map<std::string, std::unique_ptr<Counter>> counters;
    std::map<std::string, std::unique_ptr<Gauge>> gauges;
    std::map<std::string, std::unique_ptr<Histogram>> histograms;
};

} // namespace marlin::obs

#endif // MARLIN_OBS_METRICS_HH

/**
 * @file
 * Three-level cache hierarchy + dTLB + L1 stream prefetcher, with a
 * simple latency model so traces yield both counter values and an
 * estimated memory-time figure.
 */

#ifndef MARLIN_MEMSIM_HIERARCHY_HH
#define MARLIN_MEMSIM_HIERARCHY_HH

#include "marlin/memsim/cache.hh"
#include "marlin/memsim/prefetcher.hh"
#include "marlin/memsim/tlb.hh"

namespace marlin::memsim
{

/** Full hierarchy geometry and latencies (cycles). */
struct HierarchyConfig
{
    CacheConfig l1 = {32 * 1024, 64, 8};
    CacheConfig l2 = {512 * 1024, 64, 8};
    CacheConfig l3 = {16 * 1024 * 1024, 64, 16};
    TlbConfig tlb = {};
    PrefetcherConfig prefetcher = {};
    std::uint32_t l1Latency = 4;
    std::uint32_t l2Latency = 12;
    std::uint32_t l3Latency = 40;
    std::uint32_t memLatency = 200;
    std::uint32_t tlbMissPenalty = 30;
};

/** Aggregated counters after a trace replay. */
struct HierarchyStats
{
    CacheStats l1;
    CacheStats l2;
    CacheStats l3;
    TlbStats tlb;
    PrefetcherStats prefetcher;
    std::uint64_t lineAccesses = 0;
    std::uint64_t cycles = 0;

    /** Misses that went all the way to memory. */
    std::uint64_t memAccesses() const { return l3.misses; }
};

/**
 * Inclusive three-level hierarchy. Demand accesses walk L1 -> L2 ->
 * L3 -> memory; fills propagate back up. The stream prefetcher
 * observes the L1 demand-line stream and fills L1 and L2.
 */
class CacheHierarchy
{
  public:
    explicit CacheHierarchy(HierarchyConfig config = {});

    const HierarchyConfig &config() const { return _config; }

    /**
     * Issue a demand read of @p bytes at @p addr; the access is
     * split into line-granular probes.
     */
    void access(std::uint64_t addr, std::uint32_t bytes);

    /** Snapshot of all counters. */
    HierarchyStats stats() const;

    /** Clear contents and counters. */
    void reset();

  private:
    HierarchyConfig _config;
    CacheModel l1;
    CacheModel l2;
    CacheModel l3;
    TlbModel tlb;
    StreamPrefetcher prefetcher;
    std::uint64_t lineAccesses = 0;
    std::uint64_t cycles = 0;
    std::vector<std::uint64_t> prefetchScratch;

    void accessLine(std::uint64_t line_addr);
};

} // namespace marlin::memsim

#endif // MARLIN_MEMSIM_HIERARCHY_HH

#include "marlin/memsim/hierarchy.hh"

namespace marlin::memsim
{

CacheHierarchy::CacheHierarchy(HierarchyConfig config)
    : _config(config), l1(config.l1), l2(config.l2), l3(config.l3),
      tlb(config.tlb), prefetcher(config.prefetcher)
{
}

void
CacheHierarchy::accessLine(std::uint64_t line_addr)
{
    ++lineAccesses;

    if (!tlb.access(line_addr))
        cycles += _config.tlbMissPenalty;

    cycles += _config.l1Latency;
    if (!l1.access(line_addr)) {
        cycles += _config.l2Latency;
        if (!l2.access(line_addr)) {
            cycles += _config.l3Latency;
            if (!l3.access(line_addr))
                cycles += _config.memLatency;
            l2.prefetchFill(line_addr); // Fill upward.
        }
        // The demand line lands in L1 via the miss in access();
        // nothing more to do for the fill path.
    }

    // Prefetcher trains on the demand line stream.
    const std::uint64_t line = line_addr / _config.l1.lineBytes;
    prefetcher.observe(line, prefetchScratch);
    for (std::uint64_t target : prefetchScratch) {
        const std::uint64_t target_addr =
            target * _config.l1.lineBytes;
        if (!l1.contains(target_addr)) {
            l1.prefetchFill(target_addr);
            l2.prefetchFill(target_addr);
            l3.prefetchFill(target_addr);
        }
    }
}

void
CacheHierarchy::access(std::uint64_t addr, std::uint32_t bytes)
{
    const std::uint64_t line_bytes = _config.l1.lineBytes;
    const std::uint64_t first = addr / line_bytes;
    const std::uint64_t last =
        (addr + (bytes ? bytes - 1 : 0)) / line_bytes;
    for (std::uint64_t line = first; line <= last; ++line)
        accessLine(line * line_bytes);
}

HierarchyStats
CacheHierarchy::stats() const
{
    HierarchyStats s;
    s.l1 = l1.stats();
    s.l2 = l2.stats();
    s.l3 = l3.stats();
    s.tlb = tlb.stats();
    s.prefetcher = prefetcher.stats();
    s.lineAccesses = lineAccesses;
    s.cycles = cycles;
    return s;
}

void
CacheHierarchy::reset()
{
    l1.reset();
    l2.reset();
    l3.reset();
    tlb.reset();
    prefetcher.reset();
    lineAccesses = 0;
    cycles = 0;
}

} // namespace marlin::memsim

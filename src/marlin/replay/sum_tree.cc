#include "marlin/replay/sum_tree.hh"

#include <algorithm>

#include "marlin/base/logging.hh"
#include "marlin/base/serialize.hh"
#include "marlin/obs/metrics.hh"

namespace marlin::replay
{

SumTree::SumTree(BufferIndex capacity) : _capacity(capacity)
{
    MARLIN_ASSERT(capacity > 0, "sum tree capacity must be > 0");
    leafCount = 1;
    while (leafCount < capacity)
        leafCount <<= 1;
    nodes.assign(2 * leafCount, 0.0);
}

double
SumTree::priorityOf(BufferIndex idx) const
{
    MARLIN_ASSERT(idx < _capacity, "sum tree index out of range");
    return nodes[leafCount + idx];
}

void
SumTree::set(BufferIndex idx, double priority)
{
    MARLIN_ASSERT(idx < _capacity, "sum tree index out of range");
    MARLIN_ASSERT(priority >= 0.0, "priorities must be non-negative");
    BufferIndex node = leafCount + idx;
    const double delta = priority - nodes[node];
    nodes[node] = priority;
    _maxPriority = std::max(_maxPriority, priority);
    while (node > 1) {
        node >>= 1;
        nodes[node] += delta;
    }
}

BufferIndex
SumTree::find(double prefix) const
{
    MARLIN_ASSERT(total() > 0.0, "sampling from an empty sum tree");
    // The paper attributes prioritized sampling's cost to these
    // pointer-chasing descents; the counters expose the traffic
    // (depth is log2(leafCount), so depth_total/finds recovers the
    // effective tree height a run paid for).
    static obs::Counter &finds =
        obs::Registry::instance().counter("replay.sumtree.finds");
    static obs::Counter &depth_total =
        obs::Registry::instance().counter(
            "replay.sumtree.depth_total");
    finds.add();
    if (prefix < 0.0)
        prefix = 0.0;
    BufferIndex node = 1;
    std::uint64_t depth = 0;
    while (node < leafCount) {
        const BufferIndex left = 2 * node;
        if (prefix < nodes[left]) {
            node = left;
        } else {
            prefix -= nodes[left];
            node = left + 1;
        }
        ++depth;
    }
    depth_total.add(depth);
    BufferIndex leaf = node - leafCount;
    // Guard against floating-point drift landing on a zero-priority
    // padding leaf.
    if (leaf >= _capacity)
        leaf = _capacity - 1;
    return leaf;
}

void
SumTree::clear()
{
    std::fill(nodes.begin(), nodes.end(), 0.0);
    _maxPriority = 1.0;
}

void
SumTree::saveState(std::ostream &os) const
{
    writePod<std::uint64_t>(os, _capacity);
    writePod<double>(os, _maxPriority);
    writeVector(os, nodes);
}

void
SumTree::loadState(std::istream &is)
{
    const auto capacity = readPod<std::uint64_t>(is);
    if (capacity != _capacity) {
        fatal("sum tree checkpoint capacity %llu does not match %llu",
              static_cast<unsigned long long>(capacity),
              static_cast<unsigned long long>(_capacity));
    }
    _maxPriority = readPod<double>(is);
    std::vector<double> loaded = readVector<double>(is);
    if (loaded.size() != nodes.size()) {
        fatal("sum tree checkpoint has %zu nodes, tree has %zu",
              loaded.size(), nodes.size());
    }
    nodes = std::move(loaded);
}

} // namespace marlin::replay

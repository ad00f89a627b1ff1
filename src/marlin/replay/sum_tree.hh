/**
 * @file
 * Flat-array binary sum tree supporting O(log n) priority updates
 * and prefix-sum sampling — the standard PER data structure
 * (Schaul et al., 2015).
 */

#ifndef MARLIN_REPLAY_SUM_TREE_HH
#define MARLIN_REPLAY_SUM_TREE_HH

#include <iosfwd>
#include <vector>

#include "marlin/base/types.hh"

namespace marlin::replay
{

/**
 * Complete binary tree over `capacity` leaves (rounded up to a power
 * of two) where internal nodes store subtree sums. Leaf i holds the
 * unnormalized priority of replay slot i.
 */
class SumTree
{
  public:
    explicit SumTree(BufferIndex capacity);

    BufferIndex capacity() const { return _capacity; }

    /** Sum of all priorities. */
    double total() const { return nodes[1]; }

    /** Current priority of leaf @p idx. */
    double priorityOf(BufferIndex idx) const;

    /** Largest priority ever set (1 before any update). */
    double maxPriority() const { return _maxPriority; }

    /** Set leaf @p idx to @p priority and update ancestors. */
    void set(BufferIndex idx, double priority);

    /**
     * Find the leaf whose cumulative-priority interval contains
     * @p prefix. @pre 0 <= prefix < total().
     */
    BufferIndex find(double prefix) const;

    /** Reset all priorities to zero. */
    void clear();

    /** Serialize every node plus the running max priority. */
    void saveState(std::ostream &os) const;

    /** Restore state written by saveState on a same-capacity tree. */
    void loadState(std::istream &is);

  private:
    BufferIndex _capacity;
    BufferIndex leafCount; ///< capacity rounded to a power of two.
    std::vector<double> nodes; ///< 1-indexed heap layout.
    double _maxPriority = 1.0;
};

} // namespace marlin::replay

#endif // MARLIN_REPLAY_SUM_TREE_HH

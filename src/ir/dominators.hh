/**
 * @file
 * Dominator and post-dominator trees (Cooper-Harvey-Kennedy).
 *
 * Dominance drives CSE availability intuition, loop detection, and
 * region formation; post-dominance drives the paper's Section 7
 * check-elimination extension inside atomic regions.
 */

#ifndef AREGION_IR_DOMINATORS_HH
#define AREGION_IR_DOMINATORS_HH

#include <vector>

#include "ir/ir.hh"

namespace aregion::ir {

/** Immediate-dominator tree over a function's reachable blocks. */
class DominatorTree
{
  public:
    /** Build dominators (post=false) or post-dominators (post=true).
     *  Post-dominance uses a virtual exit joining every Ret block. */
    DominatorTree(const Function &func, bool post = false);

    /** Immediate dominator of b, or -1 for the root / unreachable. */
    int idom(int block) const;

    /** True if a dominates b (every node dominates itself). */
    bool dominates(int a, int b) const;

    /** Children of b in the dominator tree. */
    const std::vector<int> &children(int block) const;

    /** True if the block is reachable (has a tree position). */
    bool reachable(int block) const;

    int root() const { return rootBlock; }

  private:
    int intersect(int a, int b) const;

    std::vector<int> idomVec;           ///< -1 if unreachable
    std::vector<std::vector<int>> kids;
    std::vector<int> dfnum;             ///< preorder number, -1 unreachable
    std::vector<int> dfLast;            ///< max dfnum in subtree
    int rootBlock = -1;
};

/**
 * Dominance frontiers per block (Cytron et al. / Cooper-Harvey-
 * Kennedy "runner" formulation): DF(b) contains every join j with a
 * predecessor dominated by b while j itself is not strictly
 * dominated by b. Result is indexed by block id (empty and sorted
 * ascending for unreachable blocks); drives pruned phi placement in
 * ssa.cc. `doms` must be the forward tree of `func`.
 */
std::vector<std::vector<int>>
dominanceFrontiers(const Function &func, const DominatorTree &doms);

} // namespace aregion::ir

#endif // AREGION_IR_DOMINATORS_HH

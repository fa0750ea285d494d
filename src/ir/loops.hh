/**
 * @file
 * Natural-loop detection and the loop nesting forest.
 */

#ifndef AREGION_IR_LOOPS_HH
#define AREGION_IR_LOOPS_HH

#include <vector>

#include "ir/dominators.hh"
#include "ir/ir.hh"

namespace aregion::ir {

/** One natural loop (back edges with a shared header are merged). */
struct Loop
{
    int header = -1;
    std::vector<int> blocks;            ///< includes the header
    std::vector<int> backEdgeSources;   ///< latch blocks
    int parent = -1;                    ///< enclosing loop index or -1
    int depth = 1;                      ///< 1 for outermost

    bool contains(int block) const;
};

/** All natural loops of a function. */
class LoopForest
{
  public:
    LoopForest(const Function &func, const DominatorTree &doms);

    const std::vector<Loop> &loops() const { return loopVec; }
    int numLoops() const { return static_cast<int>(loopVec.size()); }

    /** Loop indices ordered innermost-first (paper Algorithm 1
     *  processes loops in post-order). */
    std::vector<int> postOrder() const;

    /** Innermost loop containing the block, or -1. */
    int loopOf(int block) const;

    /** Predecessors of the header from outside the loop. */
    std::vector<int> entryPreds(const Function &func, int loop) const;

  private:
    std::vector<Loop> loopVec;
    std::vector<int> innermost;     ///< block -> loop index or -1
};

} // namespace aregion::ir

#endif // AREGION_IR_LOOPS_HH

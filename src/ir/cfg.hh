/**
 * @file
 * CFG surgery helpers shared by optimization passes and region
 * formation: subgraph cloning and edge redirection.
 */

#ifndef AREGION_IR_CFG_HH
#define AREGION_IR_CFG_HH

#include <map>
#include <set>

#include "ir/ir.hh"

namespace aregion::ir {

/**
 * Clone a set of blocks. Edges between cloned blocks are redirected
 * to the clones; edges leaving the set keep their original targets.
 * Instructions are copied verbatim (same vregs: sound in the non-SSA
 * IR as long as the caller wires control flow consistently).
 * Returns old-id -> clone-id.
 */
std::map<int, int> cloneBlocks(Function &func,
                               const std::set<int> &block_set);

/** Redirect every edge from `from` that targets `old_to` to `new_to`
 *  (succCount entries follow). */
void redirectEdges(Function &func, int from, int old_to, int new_to);

} // namespace aregion::ir

#endif // AREGION_IR_CFG_HH

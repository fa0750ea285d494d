/**
 * @file
 * CFG cleanup: collapse same-target branches, thread trivial jumps,
 * merge straight-line chains, drop unreachable blocks.
 *
 * A sweep walks the reverse postorder three times (collapse, thread,
 * merge); sweeps repeat until one changes nothing. The merge walk
 * keeps its predecessor lists exact: merging s into b renames s to b
 * in the lists of s's successors and tests b again, so a chain of
 * any length folds into its head in one walk. A handful of sweeps
 * reach the fixpoint, and the 64-sweep bound is an assertion.
 *
 * The pass runs both before SSA construction (on translate output)
 * and inside the SSA pipeline, so every edge edit keeps phi inputs
 * consistent: collapsing a duplicate edge removes its phi slot,
 * retargeting an edge through a trivial jump copies the threaded
 * value into a new slot for the new predecessor, and merging a
 * single-predecessor block lowers its (necessarily arity-1) phis to
 * copies. A block that carries phis is never itself a threading
 * candidate — a trivial jump is a single instruction by definition.
 */

#include "opt/pass.hh"

#include <algorithm>

#include "ir/cfg.hh"

namespace aregion::opt {

using namespace aregion::ir;

namespace {

constexpr int kMaxSweeps = 64;

bool
isRegionEntry(const Block &blk)
{
    return isRegionEntryBlock(blk);
}

/** A block containing only a jump (threading candidate); a block
 *  with phis can never qualify. */
bool
isTrivialJump(const Block &blk)
{
    return blk.instrs.size() == 1 && blk.terminator().op == Op::Jump &&
           blk.succs.size() == 1 && blk.succs[0] != blk.id;
}

bool
hasPhis(const Block &blk)
{
    return !blk.instrs.empty() && blk.instrs.front().op == Op::Phi;
}

/** Phi slots distinguish edges only by predecessor id, so two edges
 *  from the same predecessor must carry identical values — otherwise
 *  the value would depend on which edge was taken, which the
 *  representation cannot express. Returns false if giving `newPred`
 *  a copy of `via`'s slots would break that. */
bool
threadKeepsPhisUnambiguous(const Block &blk, int via, int newPred)
{
    for (const Instr &in : blk.instrs) {
        if (in.op != Op::Phi)
            break;
        Vreg via_val = NO_VREG;
        for (size_t k = 0; k < in.phiBlocks.size(); ++k) {
            if (in.phiBlocks[k] == via)
                via_val = in.srcs[k];
        }
        for (size_t k = 0; k < in.phiBlocks.size(); ++k) {
            if (in.phiBlocks[k] == newPred && in.srcs[k] != via_val)
                return false;
        }
    }
    return true;
}

/** A same-target branch can only collapse to a jump if the target's
 *  phis do not distinguish its two edges. */
bool
dupEdgeSlotsAgree(const Block &blk, int pred)
{
    for (const Instr &in : blk.instrs) {
        if (in.op != Op::Phi)
            break;
        Vreg first = NO_VREG;
        bool seen = false;
        for (size_t k = 0; k < in.phiBlocks.size(); ++k) {
            if (in.phiBlocks[k] != pred)
                continue;
            if (seen && in.srcs[k] != first)
                return false;
            first = in.srcs[k];
            seen = true;
        }
    }
    return true;
}

/** The edge newPred -> blk replaces an edge that used to run through
 *  `via` (still a predecessor for its other edges): duplicate the
 *  threaded slot value for the new predecessor. */
void
addThreadedPhiSlot(Block &blk, int via, int newPred)
{
    for (Instr &in : blk.instrs) {
        if (in.op != Op::Phi)
            break;
        for (size_t k = 0; k < in.phiBlocks.size(); ++k) {
            if (in.phiBlocks[k] == via) {
                in.srcs.push_back(in.srcs[k]);
                in.phiBlocks.push_back(newPred);
                break;
            }
        }
    }
}

/** Rename predecessor `from` to `to` in every phi slot of blk. */
void
renamePhiPred(Block &blk, int from, int to)
{
    for (Instr &in : blk.instrs) {
        if (in.op != Op::Phi)
            break;
        for (int &p : in.phiBlocks) {
            if (p == from)
                p = to;
        }
    }
}

/** The block `b` can absorb, or -1: its only successor, reached by a
 *  jump, whose only predecessor is `b`. Region boundaries, calls
 *  (which end blocks), synchronized epilogues and region alt blocks
 *  stay separate. */
int
mergeableSucc(const Function &func, int b,
              const std::vector<std::vector<int>> &preds)
{
    const Block &blk = func.block(b);
    if (blk.succs.size() != 1 || blk.terminator().op != Op::Jump)
        return -1;
    const int s = blk.succs[0];
    if (s == b || s == func.entry)
        return -1;
    const Block &next = func.block(s);
    if (preds[static_cast<size_t>(s)].size() != 1)
        return -1;
    if (isRegionEntry(blk) || isRegionEntry(next))
        return -1;
    if (blk.regionId != next.regionId)
        return -1;
    if (blk.endsWithCall())
        return -1;
    // Keep synchronized-method epilogues (MonitorExit blocks)
    // separate from their Ret blocks: region formation stops at Ret
    // blocks but must replicate the epilogue so SLE sees balanced
    // monitor pairs.
    bool has_monitor_exit = false;
    for (const Instr &in : blk.instrs)
        has_monitor_exit |= in.op == Op::MonitorExit;
    if (has_monitor_exit && next.terminator().op == Op::Ret)
        return -1;
    // Don't merge into a region alt block (reached by the abort
    // exception edge, which preds don't see).
    for (const RegionInfo &r : func.regions) {
        if (r.altBlock == s)
            return -1;
    }
    return s;
}

/** Append s to b (s's only predecessor) and leave s a dead
 *  tombstone. `preds` stays exact: s's successors now name b. */
void
mergeInto(Function &func, int b, int s,
          std::vector<std::vector<int>> &preds)
{
    Block &blk = func.block(b);
    Block &next = func.block(s);
    // A single-predecessor block's phis are arity-1; they lower to
    // plain copies at the merge point.
    for (Instr &in : next.instrs) {
        if (in.op != Op::Phi)
            break;
        in.op = Op::Mov;
        in.srcs.resize(1);
        in.phiBlocks.clear();
    }
    blk.instrs.pop_back();      // drop the jump
    blk.instrs.insert(blk.instrs.end(), next.instrs.begin(),
                      next.instrs.end());
    blk.succs = next.succs;
    blk.succCount = next.succCount;
    // Successor phis and predecessor lists now see the merged block.
    for (int t : blk.succs) {
        renamePhiPred(func.block(t), s, b);
        std::replace(preds[static_cast<size_t>(t)].begin(),
                     preds[static_cast<size_t>(t)].end(), s, b);
    }
    preds[static_cast<size_t>(s)].clear();
    next.instrs.clear();
    next.succs.clear();
    Instr ret;
    ret.op = Op::Ret;
    next.instrs.push_back(std::move(ret)); // dead tombstone
}

} // namespace

bool
simplifyCfg(Function &func)
{
    bool changed_any = false;
    bool changed = true;
    for (int sweep = 1; changed; ++sweep) {
        // A sweep's walks do all the work they can see, so a few
        // sweeps reach the fixpoint; needing 64 is a pass bug.
        AREGION_ASSERT(sweep <= kMaxSweeps, "simplify-cfg on ",
                       func.name, " still changing after ",
                       kMaxSweeps, " sweeps");
        changed = false;

        // Collapse branches whose arms agree (one phi slot per
        // dropped duplicate edge goes with it).
        for (int b : func.reversePostOrder()) {
            Block &blk = func.block(b);
            if (blk.terminator().op == Op::Branch &&
                blk.succs.size() == 2 && blk.succs[0] == blk.succs[1] &&
                dupEdgeSlotsAgree(func.block(blk.succs[0]), b)) {
                Instr jump;
                jump.op = Op::Jump;
                jump.bcPc = blk.terminator().bcPc;
                jump.bcMethod = blk.terminator().bcMethod;
                blk.instrs.back() = std::move(jump);
                blk.succs.pop_back();
                const double total =
                    blk.succCount.size() == 2
                        ? blk.succCount[0] + blk.succCount[1]
                        : blk.execCount;
                blk.succCount = {total};
                func.block(blk.succs[0]).dropPhiSlot(b);
                changed = true;
            }
        }

        // Thread edges through trivial jump blocks. Region entries
        // are skipped: their second successor is the abort exception
        // edge and must stay equal to RegionInfo::altBlock.
        for (int b : func.reversePostOrder()) {
            Block &blk = func.block(b);
            if (isRegionEntry(blk))
                continue;
            for (int &s : blk.succs) {
                int hops = 0;
                while (hops++ < 8) {
                    Block &target = func.block(s);
                    if (!isTrivialJump(target) || target.id == blk.id)
                        break;
                    const int next = target.succs[0];
                    if (!threadKeepsPhisUnambiguous(func.block(next),
                                                    target.id, blk.id))
                        break;
                    // The threaded block stays a predecessor of
                    // `next` for its remaining edges; our new edge
                    // needs its own phi slot carrying the same
                    // values.
                    addThreadedPhiSlot(func.block(next), target.id,
                                       blk.id);
                    s = next;
                    changed = true;
                }
            }
        }
        if (isTrivialJump(func.block(func.entry)) &&
            !isRegionEntry(func.block(func.entry)) &&
            !hasPhis(func.block(
                func.block(func.entry).succs[0]))) {
            // The new entry must not carry phis: the implicit
            // function-entry edge has no slot to populate.
            func.entry = func.block(func.entry).succs[0];
            changed = true;
        }

        // Merge straight-line pairs b -> s where s has b as its only
        // predecessor, all in this one walk: after a merge b is tested
        // again, so a whole chain folds into its head.
        auto preds = func.computePreds();
        for (int b : func.reversePostOrder()) {
            for (int s = mergeableSucc(func, b, preds); s != -1;
                 s = mergeableSucc(func, b, preds)) {
                mergeInto(func, b, s, preds);
                changed = true;
            }
        }

        changed_any |= changed;
    }

    if (changed_any)
        func.compact();
    return changed_any;
}

} // namespace aregion::opt

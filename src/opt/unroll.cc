/**
 * @file
 * Baseline loop unrolling (factor 2).
 *
 * Duplicates the body of hot innermost loops so redundancy between
 * consecutive iterations falls within one optimization scope. The
 * exit tests remain branches in this non-speculative formulation, so
 * cross-copy redundancy elimination is limited by the control flow —
 * exactly the limitation that atomic-region partial unrolling lifts.
 */

#include "opt/pass.hh"

#include <set>

#include "ir/cfg.hh"
#include "ir/loops.hh"

namespace aregion::opt {

using namespace aregion::ir;

namespace {

/** Min (back-edge count / entry count) before unrolling pays. */
constexpr double kMinTrip = 4.0;

} // namespace

bool
unrollLoops(Function &func, const OptContext &ctx)
{
    if (ctx.unrollBodyLimit <= 0)
        return false;
    // Body cloning duplicates defs wholesale; the pass only works on
    // conventional form. The pipeline driver lowers out of SSA before
    // calling us — this is a belt-and-braces check.
    AREGION_ASSERT(!func.ssaForm,
                   "unrollLoops requires conventional (non-SSA) form");

    const DominatorTree doms(func);
    const LoopForest forest(func, doms);

    // Pick eligible innermost loops before editing the CFG.
    std::vector<int> targets;
    for (int li : forest.postOrder()) {
        const Loop &loop = forest.loops()[static_cast<size_t>(li)];
        bool innermost = true;
        for (int lj = 0; lj < forest.numLoops(); ++lj) {
            innermost &= forest.loops()[static_cast<size_t>(lj)]
                             .parent != li;
        }
        if (!innermost)
            continue;
        int body_instrs = 0;
        bool has_region_code = false;
        for (int b : loop.blocks) {
            body_instrs +=
                static_cast<int>(func.block(b).instrs.size());
            has_region_code |= func.block(b).regionId >= 0;
            for (const Instr &in : func.block(b).instrs) {
                has_region_code |= in.op == Op::AtomicBegin ||
                                   in.op == Op::AtomicEnd;
            }
        }
        if (has_region_code || body_instrs > ctx.unrollBodyLimit)
            continue;
        // Profile: unroll only loops that actually iterate.
        const Block &header = func.block(loop.header);
        double entry_flow = 0;
        const auto preds = func.computePreds();
        for (int p : preds[static_cast<size_t>(loop.header)]) {
            if (!loop.contains(p)) {
                const Block &pb = func.block(p);
                for (size_t s = 0; s < pb.succs.size(); ++s) {
                    if (pb.succs[s] == loop.header &&
                        s < pb.succCount.size()) {
                        entry_flow += pb.succCount[s];
                    }
                }
            }
        }
        if (entry_flow <= 0 ||
            header.execCount / entry_flow < kMinTrip) {
            continue;
        }
        targets.push_back(li);
    }

    bool changed = false;
    for (int li : targets) {
        const Loop &loop = forest.loops()[static_cast<size_t>(li)];
        const std::set<int> body(loop.blocks.begin(),
                                 loop.blocks.end());
        const auto clones = cloneBlocks(func, body);
        // Original latches jump to the clone header; clone latches
        // jump back to the original header.
        for (int latch : loop.backEdgeSources) {
            redirectEdges(func, latch, loop.header,
                          clones.at(loop.header));
            redirectEdges(func, clones.at(latch),
                          clones.at(loop.header), loop.header);
        }
        // Each copy now executes half the iterations.
        for (int b : loop.blocks) {
            func.block(b).execCount /= 2;
            for (double &c : func.block(b).succCount)
                c /= 2;
            Block &clone = func.block(clones.at(b));
            clone.execCount /= 2;
            for (double &c : clone.succCount)
                c /= 2;
        }
        changed = true;
    }

    if (changed)
        func.compact();
    return changed;
}

} // namespace aregion::opt

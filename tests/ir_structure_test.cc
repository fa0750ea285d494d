/**
 * @file
 * Tests for IR containers, RPO, dominators, post-dominators, loops,
 * and the IR verifier, on hand-constructed CFGs.
 */

#include <gtest/gtest.h>

#include "ir/dominators.hh"
#include "ir/loops.hh"
#include "ir/printer.hh"
#include "ir/verifier.hh"

namespace {

using namespace aregion::ir;

Instr
mkJump()
{
    Instr in;
    in.op = Op::Jump;
    return in;
}

Instr
mkBranch(Vreg cond)
{
    Instr in;
    in.op = Op::Branch;
    in.srcs = {cond};
    return in;
}

Instr
mkRet()
{
    Instr in;
    in.op = Op::Ret;
    return in;
}

Instr
mkConst(Vreg dst, int64_t value)
{
    Instr in;
    in.op = Op::Const;
    in.dst = dst;
    in.imm = value;
    return in;
}

/**
 * Build the classic diamond-with-loop CFG:
 *
 *      0 (entry)
 *      |
 *      1 <------+
 *     / \       |
 *    2   3      |
 *     \ /       |
 *      4 -------+   (back edge 4->1)
 *      |
 *      5 (exit)
 */
Function
diamondLoop()
{
    Function f;
    f.name = "diamond";
    const Vreg c = f.newVreg();
    for (int i = 0; i < 6; ++i)
        f.newBlock();
    auto link = [&](int b, std::vector<int> succs, Instr term) {
        Block &blk = f.block(b);
        if (blk.instrs.empty())
            blk.instrs.push_back(mkConst(c, 1));
        blk.instrs.push_back(std::move(term));
        blk.succCount.assign(succs.size(), 1.0);
        blk.succs = std::move(succs);
    };
    link(0, {1}, mkJump());
    link(1, {2, 3}, mkBranch(c));
    link(2, {4}, mkJump());
    link(3, {4}, mkJump());
    link(4, {1, 5}, mkBranch(c));
    link(5, {}, mkRet());
    f.entry = 0;
    return f;
}

TEST(IrStructure, ReversePostOrderStartsAtEntry)
{
    const Function f = diamondLoop();
    const auto rpo = f.reversePostOrder();
    ASSERT_EQ(rpo.size(), 6u);
    EXPECT_EQ(rpo.front(), 0);
    // Every block appears exactly once.
    std::vector<int> sorted = rpo;
    std::sort(sorted.begin(), sorted.end());
    EXPECT_EQ(sorted, (std::vector<int>{0, 1, 2, 3, 4, 5}));
}

TEST(IrStructure, PredsMatchSuccs)
{
    const Function f = diamondLoop();
    const auto preds = f.computePreds();
    EXPECT_EQ(preds[1], (std::vector<int>{0, 4}));
    EXPECT_EQ(preds[4], (std::vector<int>{2, 3}));
    EXPECT_TRUE(preds[0].empty());
}

TEST(Dominators, DiamondLoop)
{
    const Function f = diamondLoop();
    const DominatorTree doms(f);
    EXPECT_EQ(doms.idom(0), -1);
    EXPECT_EQ(doms.idom(1), 0);
    EXPECT_EQ(doms.idom(2), 1);
    EXPECT_EQ(doms.idom(3), 1);
    EXPECT_EQ(doms.idom(4), 1);    // joins 2 and 3
    EXPECT_EQ(doms.idom(5), 4);
    EXPECT_TRUE(doms.dominates(1, 5));
    EXPECT_TRUE(doms.dominates(4, 4));
    EXPECT_FALSE(doms.dominates(2, 4));
    EXPECT_FALSE(doms.dominates(5, 4));
}

TEST(Dominators, PostDominatorsOfDiamondLoop)
{
    const Function f = diamondLoop();
    const DominatorTree pdoms(f, /*post=*/true);
    // 4 post-dominates everything inside the loop; 5 post-dominates
    // all blocks.
    EXPECT_TRUE(pdoms.dominates(4, 1));
    EXPECT_TRUE(pdoms.dominates(4, 2));
    EXPECT_TRUE(pdoms.dominates(4, 3));
    EXPECT_TRUE(pdoms.dominates(5, 0));
    EXPECT_FALSE(pdoms.dominates(2, 1));
}

TEST(Dominators, UnreachableBlocksAreFlagged)
{
    Function f = diamondLoop();
    Block &orphan = f.newBlock();
    orphan.instrs.push_back(mkRet());
    const DominatorTree doms(f);
    EXPECT_FALSE(doms.reachable(orphan.id));
    EXPECT_FALSE(doms.dominates(0, orphan.id));
}

TEST(Loops, DetectsNaturalLoop)
{
    const Function f = diamondLoop();
    const DominatorTree doms(f);
    const LoopForest forest(f, doms);
    ASSERT_EQ(forest.numLoops(), 1);
    const Loop &loop = forest.loops()[0];
    EXPECT_EQ(loop.header, 1);
    EXPECT_EQ(loop.backEdgeSources, std::vector<int>{4});
    std::vector<int> blocks = loop.blocks;
    std::sort(blocks.begin(), blocks.end());
    EXPECT_EQ(blocks, (std::vector<int>{1, 2, 3, 4}));
    EXPECT_EQ(forest.loopOf(2), 0);
    EXPECT_EQ(forest.loopOf(5), -1);
}

TEST(Loops, ExitEdgesAndEntryPreds)
{
    const Function f = diamondLoop();
    const DominatorTree doms(f);
    const LoopForest forest(f, doms);
    EXPECT_EQ(forest.entryPreds(f, 0), std::vector<int>{0});
}

TEST(Loops, NestedLoopsGetDepths)
{
    // 0 -> 1 -> 2 -> 1 (inner), 2 -> 0? No: build
    // 0 -> 1; 1 -> 2; 2 -> {2 inner self loop? use proper}:
    //   outer: 1..3 with back edge 3->1; inner: 2 with self edge.
    Function f;
    f.name = "nested";
    const Vreg c = f.newVreg();
    for (int i = 0; i < 5; ++i)
        f.newBlock();
    auto link = [&](int b, std::vector<int> succs, Instr term) {
        Block &blk = f.block(b);
        blk.instrs.push_back(mkConst(c, 1));
        blk.instrs.push_back(std::move(term));
        blk.succCount.assign(succs.size(), 1.0);
        blk.succs = std::move(succs);
    };
    link(0, {1}, mkJump());
    link(1, {2}, mkJump());
    link(2, {2, 3}, mkBranch(c));   // inner self-loop
    link(3, {1, 4}, mkBranch(c));   // outer back edge
    link(4, {}, mkRet());
    f.entry = 0;

    const DominatorTree doms(f);
    const LoopForest forest(f, doms);
    ASSERT_EQ(forest.numLoops(), 2);
    const auto order = forest.postOrder();
    // Innermost first.
    EXPECT_EQ(forest.loops()[static_cast<size_t>(order[0])].header, 2);
    EXPECT_EQ(forest.loops()[static_cast<size_t>(order[1])].header, 1);
    EXPECT_EQ(forest.loops()[static_cast<size_t>(order[0])].depth, 2);
    EXPECT_EQ(forest.loopOf(2), order[0]);
}

TEST(IrVerifier, AcceptsDiamond)
{
    const Function f = diamondLoop();
    EXPECT_TRUE(verify(f).empty());
}

TEST(IrVerifier, RejectsMissingTerminator)
{
    Function f = diamondLoop();
    f.block(5).instrs.pop_back();
    f.block(5).instrs.push_back(mkConst(0, 3));
    EXPECT_FALSE(verify(f).empty());
}

TEST(IrVerifier, RejectsBadSuccessorArity)
{
    Function f = diamondLoop();
    f.block(0).succs.push_back(2);  // jump with two successors
    EXPECT_FALSE(verify(f).empty());
}

TEST(IrVerifier, RejectsOutOfRangeVreg)
{
    Function f = diamondLoop();
    f.block(0).instrs.insert(f.block(0).instrs.begin(),
                             mkConst(99, 1));
    EXPECT_FALSE(verify(f).empty());
}

TEST(IrPrinter, MentionsBlocksAndOps)
{
    const Function f = diamondLoop();
    const std::string s = toString(f);
    EXPECT_NE(s.find("function diamond"), std::string::npos);
    EXPECT_NE(s.find("b4"), std::string::npos);
    EXPECT_NE(s.find("branch"), std::string::npos);
}

} // namespace

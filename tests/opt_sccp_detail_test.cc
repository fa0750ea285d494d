/**
 * @file
 * SCCP detail tests: the algebraic identity matrix, branch
 * elimination, check folding, assert-polarity awareness, and the
 * zero-initialised-register entry assumption.
 *
 * These scenarios carried over from the old constant-fold pass: the
 * sparse formulation must preserve its fold/identity/check semantics
 * exactly.
 */

#include <gtest/gtest.h>

#include "ir/evaluator.hh"
#include "ir/ssa.hh"
#include "ir/verifier.hh"
#include "opt/pass.hh"
#include "vm/builder.hh"

namespace {

using namespace aregion::ir;
namespace opt = aregion::opt;
namespace vm = aregion::vm;

struct MiniFunc
{
    MiniFunc()
    {
        block = &func.newBlock();
        func.entry = block->id;
    }

    Vreg
    constant(int64_t v)
    {
        const Vreg r = func.newVreg();
        Instr in;
        in.op = Op::Const;
        in.dst = r;
        in.imm = v;
        block->instrs.push_back(in);
        return r;
    }

    Vreg
    binop(Op op, Vreg a, Vreg b)
    {
        const Vreg r = func.newVreg();
        Instr in;
        in.op = op;
        in.dst = r;
        in.srcs = {a, b};
        block->instrs.push_back(in);
        return r;
    }

    void
    finish(std::vector<Vreg> keep)
    {
        for (Vreg v : keep) {
            Instr p;
            p.op = Op::Print;
            p.srcs = {v};
            block->instrs.push_back(p);
        }
        Instr ret;
        ret.op = Op::Ret;
        block->instrs.push_back(ret);
        verifyOrDie(func);
    }

    int
    count(Op op) const
    {
        int n = 0;
        for (int b : func.reversePostOrder()) {
            for (const auto &in : func.block(b).instrs)
                n += in.op == op;
        }
        return n;
    }

    Function func;
    Block *block;
};

/** SCCP on SSA form, lowering back out afterwards. (No trailing
 *  verify: some scenarios tag a bare block with a region id without
 *  registering a RegionInfo, which compact() then clears.) */
void
runSccp(Function &f)
{
    buildSSA(f);
    opt::sccp(f);
    destroySSA(f);
}

/** Identity sweep: (op, variable-side, const value, expect-gone). */
struct IdentityCase
{
    Op op;
    bool const_on_rhs;
    int64_t value;
    bool folds;
};

class IdentitySweep : public ::testing::TestWithParam<IdentityCase>
{
};

TEST_P(IdentitySweep, AlgebraicIdentities)
{
    const IdentityCase &c = GetParam();
    MiniFunc m;
    // A "variable": derived from an argument so it is not constant.
    m.func.numArgs = 1;
    m.func.ensureVregsAtLeast(1);
    const Vreg x = 0;
    const Vreg k = m.constant(c.value);
    const Vreg r = c.const_on_rhs ? m.binop(c.op, x, k)
                                  : m.binop(c.op, k, x);
    m.finish({r});
    runSccp(m.func);
    EXPECT_EQ(m.count(c.op), c.folds ? 0 : 1)
        << opName(c.op) << " value=" << c.value << " rhs="
        << c.const_on_rhs;
}

/** gtest names each case by a byte dump of its parameter, padding
 *  included; static storage zeroes the padding, so the names are the
 *  same in every build and run. */
constexpr IdentityCase kIdentityCases[] = {
    {Op::Add, true, 0, true},
    {Op::Add, false, 0, true},
    {Op::Add, true, 5, false},
    {Op::Sub, true, 0, true},
    {Op::Sub, false, 0, false},   // 0 - x != x
    {Op::Mul, true, 1, true},
    {Op::Mul, false, 1, true},
    {Op::Mul, true, 0, true},     // -> const 0
    {Op::Mul, true, 2, false},
    {Op::And, true, 0, true},     // -> const 0
    {Op::Or, true, 0, true},
    {Op::Xor, true, 0, true},
    {Op::Shl, true, 0, true},
    {Op::Shr, true, 0, true},
    {Op::Shr, true, 3, false},
};

INSTANTIATE_TEST_SUITE_P(Identities, IdentitySweep,
                         ::testing::ValuesIn(kIdentityCases));

TEST(SccpDetail, FullyConstantExpressionsCollapse)
{
    MiniFunc m;
    const Vreg a = m.constant(6);
    const Vreg b = m.constant(7);
    const Vreg p = m.binop(Op::Mul, a, b);
    const Vreg q = m.binop(Op::Add, p, p);
    m.finish({q});
    runSccp(m.func);
    opt::deadCodeElim(m.func);
    EXPECT_EQ(m.count(Op::Mul), 0);
    EXPECT_EQ(m.count(Op::Add), 0);

    // And the behaviour is preserved.
    Module mod;
    vm::ProgramBuilder pb;
    const auto mm = pb.declareMethod("main", 0);
    auto mb = pb.define(mm);
    mb.retVoid();
    mb.finish();
    pb.setMain(mm);
    static vm::Program shell = pb.build();
    mod.prog = &shell;
    m.func.methodId = 0;
    mod.funcs.emplace(0, std::move(m.func));
    Evaluator eval(mod);
    const auto res = eval.run();
    ASSERT_TRUE(res.completed);
    EXPECT_EQ(eval.output(), std::vector<int64_t>{84});
}

TEST(SccpDetail, DivByZeroIsNeverFolded)
{
    MiniFunc m;
    const Vreg a = m.constant(10);
    const Vreg z = m.constant(0);
    const Vreg d = m.binop(Op::Div, a, z);
    m.finish({d});
    runSccp(m.func);
    EXPECT_EQ(m.count(Op::Div), 1);     // must trap at runtime
}

TEST(SccpDetail, UnwrittenRegistersAreZero)
{
    // Frames are zero-initialised; the folder may rely on it.
    MiniFunc m;
    const Vreg never_written = m.func.newVreg();
    const Vreg five = m.constant(5);
    const Vreg sum = m.binop(Op::Add, never_written, five);
    m.finish({sum});
    runSccp(m.func);
    opt::deadCodeElim(m.func);
    EXPECT_EQ(m.count(Op::Add), 0);     // folded to 5
}

TEST(SccpDetail, ArgumentsAreNotAssumedZero)
{
    MiniFunc m;
    m.func.numArgs = 1;
    m.func.ensureVregsAtLeast(1);
    const Vreg five = m.constant(5);
    const Vreg sum = m.binop(Op::Add, 0, five);
    m.finish({sum});
    runSccp(m.func);
    EXPECT_EQ(m.count(Op::Add), 1);
}

TEST(SccpDetail, ConstantBranchRemovesDeadArm)
{
    Function f;
    f.name = "br";
    auto &entry = f.newBlock();
    auto &live_arm = f.newBlock();
    auto &dead_arm = f.newBlock();
    auto &tail = f.newBlock();
    const Vreg c = f.newVreg();
    const Vreg out = f.newVreg();
    auto mk = [](Op op, Vreg dst, std::vector<Vreg> srcs,
                 int64_t imm = 0) {
        Instr in;
        in.op = op;
        in.dst = dst;
        in.srcs = std::move(srcs);
        in.imm = imm;
        return in;
    };
    entry.instrs = {mk(Op::Const, c, {}, 1),
                    mk(Op::Branch, NO_VREG, {c})};
    entry.succs = {live_arm.id, dead_arm.id};
    entry.succCount = {1, 0};
    live_arm.instrs = {mk(Op::Const, out, {}, 10),
                       mk(Op::Jump, NO_VREG, {})};
    live_arm.succs = {tail.id};
    live_arm.succCount = {1};
    dead_arm.instrs = {mk(Op::Const, out, {}, 20),
                       mk(Op::Jump, NO_VREG, {})};
    dead_arm.succs = {tail.id};
    dead_arm.succCount = {0};
    tail.instrs = {mk(Op::Print, NO_VREG, {out}),
                   mk(Op::Ret, NO_VREG, {})};
    f.entry = entry.id;
    verifyOrDie(f);

    const int before = f.numBlocks();
    buildSSA(f);
    opt::sccp(f);
    destroySSA(f);
    verifyOrDie(f);
    EXPECT_LT(f.numBlocks(), before);
    for (int b = 0; b < f.numBlocks(); ++b) {
        for (const auto &in : f.block(b).instrs)
            EXPECT_NE(in.op, Op::Branch);
    }
}

TEST(SccpDetail, ProvablyPassingChecksFold)
{
    MiniFunc m;
    const Vreg idx = m.constant(3);
    const Vreg len = m.constant(10);
    {
        Instr in;
        in.op = Op::BoundsCheck;
        in.srcs = {idx, len};
        m.block->instrs.push_back(in);
    }
    const Vreg d = m.constant(4);
    {
        Instr in;
        in.op = Op::DivCheck;
        in.srcs = {d};
        m.block->instrs.push_back(in);
    }
    m.finish({idx});
    runSccp(m.func);
    opt::deadCodeElim(m.func);
    EXPECT_EQ(m.count(Op::BoundsCheck), 0);
    EXPECT_EQ(m.count(Op::DivCheck), 0);
}

TEST(SccpDetail, FailingChecksAreKept)
{
    MiniFunc m;
    const Vreg idx = m.constant(12);
    const Vreg len = m.constant(10);
    {
        Instr in;
        in.op = Op::BoundsCheck;
        in.srcs = {idx, len};
        m.block->instrs.push_back(in);
    }
    m.finish({idx});
    runSccp(m.func);
    EXPECT_EQ(m.count(Op::BoundsCheck), 1);
}

TEST(SccpDetail, AssertPolarityRespected)
{
    for (int64_t imm : {0, 1}) {
        for (int64_t value : {0, 1}) {
            MiniFunc m;
            m.block->regionId = 0;
            const Vreg c = m.constant(value);
            Instr in;
            in.op = Op::Assert;
            in.srcs = {c};
            in.imm = imm;
            m.block->instrs.push_back(in);
            m.finish({});
            runSccp(m.func);
            // Fires when (imm ? value==0 : value!=0); only
            // never-firing asserts may be removed.
            const bool fires = imm ? value == 0 : value != 0;
            EXPECT_EQ(m.count(Op::Assert), fires ? 1 : 0)
                << "imm=" << imm << " value=" << value;
        }
    }
}

} // namespace

/**
 * @file
 * Sparse conditional constant propagation over SSA form, plus SSA
 * copy forwarding.
 *
 * Replaces the dense constant_fold + copy_prop pair: the lattice
 * lives on SSA names instead of per-block vectors of every vreg, and
 * only names whose value changes push work. Branch arms proven
 * constant are pruned optimistically (an edge contributes to a phi
 * meet only once shown executable), which is the one place this pass
 * is stronger than the dense formulation it replaced.
 *
 * The rewrite rules are carried over unchanged:
 *  - binops fold through vm::arith Java semantics (div/rem by a
 *    constant zero never folds — the DivCheck in front of it traps),
 *  - algebraic identities with a constant operand (x+0, x*1, x&0...),
 *  - Assert / BoundsCheck / DivCheck / SizeCheck sites that provably
 *    pass are deleted; NullCheck and TypeCheck are never folded,
 *  - a Branch on a constant becomes a Jump and the dead edge's phi
 *    slots are removed.
 *
 * Copy forwarding is total in SSA: every `d = mov s` rewrites all
 * uses of d (including phi inputs) to s and disappears — no
 * availability dataflow, no hop limits.
 */

#include "opt/pass.hh"

#include <optional>

#include "support/logging.hh"
#include "vm/arith.hh"

namespace aregion::opt {

using namespace aregion::ir;

namespace {

/** Three-level constant lattice over SSA names. */
struct LatVal
{
    enum Kind : uint8_t { Top, Const, Bot };
    Kind kind = Top;
    int64_t value = 0;

    static LatVal top() { return {}; }
    static LatVal bot() { return {Bot, 0}; }
    static LatVal c(int64_t v) { return {Const, v}; }

    bool
    operator==(const LatVal &o) const
    {
        return kind == o.kind && (kind != Const || value == o.value);
    }
};

LatVal
meet(const LatVal &a, const LatVal &b)
{
    if (a.kind == LatVal::Top)
        return b;
    if (b.kind == LatVal::Top)
        return a;
    if (a.kind == LatVal::Bot || b.kind == LatVal::Bot)
        return LatVal::bot();
    return a.value == b.value ? a : LatVal::bot();
}

/** Fold a pure binop; nullopt when not foldable (e.g. div by 0). */
std::optional<int64_t>
foldBinop(Op op, int64_t a, int64_t b)
{
    namespace arith = vm::arith;
    switch (op) {
      case Op::Add: return arith::javaAdd(a, b);
      case Op::Sub: return arith::javaSub(a, b);
      case Op::Mul: return arith::javaMul(a, b);
      case Op::Div:
        if (b == 0)
            return std::nullopt;
        return arith::javaDiv(a, b);
      case Op::Rem:
        if (b == 0)
            return std::nullopt;
        return arith::javaRem(a, b);
      case Op::And: return a & b;
      case Op::Or: return a | b;
      case Op::Xor: return a ^ b;
      case Op::Shl: return arith::javaShl(a, b);
      case Op::Shr: return arith::javaShr(a, b);
      case Op::CmpEq: return a == b;
      case Op::CmpNe: return a != b;
      case Op::CmpLt: return a < b;
      case Op::CmpLe: return a <= b;
      case Op::CmpGt: return a > b;
      case Op::CmpGe: return a >= b;
      default: return std::nullopt;
    }
}

bool
isBinop(Op op)
{
    switch (op) {
      case Op::Add: case Op::Sub: case Op::Mul: case Op::Div:
      case Op::Rem: case Op::And: case Op::Or: case Op::Xor:
      case Op::Shl: case Op::Shr:
      case Op::CmpEq: case Op::CmpNe: case Op::CmpLt: case Op::CmpLe:
      case Op::CmpGt: case Op::CmpGe:
        return true;
      default:
        return false;
    }
}

/** Solver state: value per name, executability per CFG edge. */
struct Solver
{
    Function &func;
    std::vector<LatVal> value;
    /** Per block: bitmask of executable outgoing edges (by succ
     *  index; blocks have at most 2 successors). */
    std::vector<uint8_t> edgeExec;
    std::vector<uint8_t> blockExec;
    /** Defining site per name (block, instr index), or block -1 for
     *  entry values. */
    std::vector<int> defBlk;
    std::vector<int> defIdx;
    /** name -> instructions using it, as (block, index) pairs. */
    std::vector<std::vector<std::pair<int, int>>> uses;

    std::vector<std::pair<int, int>> flowWork;  // (block, succIdx)
    std::vector<Vreg> ssaWork;

    explicit Solver(Function &f) : func(f)
    {
        const size_t nv = static_cast<size_t>(func.numVregs());
        value.resize(nv);
        defBlk.assign(nv, -1);
        defIdx.assign(nv, -1);
        uses.resize(nv);
        edgeExec.assign(static_cast<size_t>(func.numBlocks()), 0);
        blockExec.assign(static_cast<size_t>(func.numBlocks()), 0);
        for (int b : func.reversePostOrder()) {
            const Block &blk = func.block(b);
            for (size_t i = 0; i < blk.instrs.size(); ++i) {
                const Instr &in = blk.instrs[i];
                if (in.dst != NO_VREG) {
                    defBlk[static_cast<size_t>(in.dst)] = b;
                    defIdx[static_cast<size_t>(in.dst)] =
                        static_cast<int>(i);
                }
                for (Vreg s : in.srcs) {
                    uses[static_cast<size_t>(s)].emplace_back(
                        b, static_cast<int>(i));
                }
            }
        }
        // Entry values: arguments are unknown, everything else reads
        // the zero-initialised frame slot.
        for (int v = 0; v < func.numVregs(); ++v) {
            if (defBlk[static_cast<size_t>(v)] == -1) {
                value[static_cast<size_t>(v)] =
                    v < func.numArgs ? LatVal::bot() : LatVal::c(0);
            }
        }
    }

    LatVal val(Vreg v) const { return value[static_cast<size_t>(v)]; }

    void
    raise(Vreg d, const LatVal &nv)
    {
        LatVal &slot = value[static_cast<size_t>(d)];
        const LatVal merged = meet(slot, nv);
        if (merged == slot)
            return;
        slot = merged;
        ssaWork.push_back(d);
    }

    bool
    edgeExecutableInto(int pred, int b) const
    {
        const Block &pb = func.block(pred);
        for (size_t s = 0; s < pb.succs.size(); ++s) {
            if (pb.succs[s] == b &&
                (edgeExec[static_cast<size_t>(pred)] >> s & 1)) {
                return true;
            }
        }
        return false;
    }

    void
    visitPhi(int b, const Instr &in)
    {
        LatVal merged = LatVal::top();
        for (size_t k = 0; k < in.srcs.size(); ++k) {
            if (edgeExecutableInto(in.phiBlocks[k], b))
                merged = meet(merged, val(in.srcs[k]));
        }
        raise(in.dst, merged);
    }

    void
    visitInstr(int b, const Instr &in)
    {
        if (in.op == Op::Phi) {
            visitPhi(b, in);
            return;
        }
        if (in.dst != NO_VREG) {
            LatVal out = LatVal::bot();
            if (in.op == Op::Const) {
                out = LatVal::c(in.imm);
            } else if (in.op == Op::Mov) {
                out = val(in.s0());
            } else if (isBinop(in.op)) {
                const LatVal a = val(in.s0());
                const LatVal c = val(in.s1());
                if (a.kind == LatVal::Const &&
                    c.kind == LatVal::Const) {
                    const auto folded =
                        foldBinop(in.op, a.value, c.value);
                    out = folded ? LatVal::c(*folded) : LatVal::bot();
                } else if (a.kind == LatVal::Top ||
                           c.kind == LatVal::Top) {
                    out = LatVal::top();
                }
            }
            raise(in.dst, out);
        }
        if (isTerminator(in.op)) {
            const Block &blk = func.block(b);
            if (in.op == Op::Branch) {
                const LatVal c = val(in.s0());
                if (c.kind == LatVal::Const) {
                    markEdge(b, c.value != 0 ? 0 : 1);
                } else if (c.kind == LatVal::Bot) {
                    markEdge(b, 0);
                    markEdge(b, 1);
                }
            } else if (in.op == Op::Jump) {
                // A region entry's Jump carries two successors (body
                // and abort edge); both can execute.
                for (size_t s = 0; s < blk.succs.size(); ++s)
                    markEdge(b, static_cast<int>(s));
            }
        }
    }

    void
    markEdge(int b, int succIdx)
    {
        const uint8_t bit = static_cast<uint8_t>(1u << succIdx);
        if (edgeExec[static_cast<size_t>(b)] & bit)
            return;
        edgeExec[static_cast<size_t>(b)] |= bit;
        flowWork.emplace_back(b, succIdx);
    }

    void
    run()
    {
        // The entry block executes unconditionally.
        visitBlock(func.entry);
        while (!flowWork.empty() || !ssaWork.empty()) {
            while (!ssaWork.empty()) {
                const Vreg v = ssaWork.back();
                ssaWork.pop_back();
                for (const auto &[ub, ui] :
                     uses[static_cast<size_t>(v)]) {
                    if (blockExec[static_cast<size_t>(ub)])
                        visitInstr(ub, func.block(ub).instrs[
                            static_cast<size_t>(ui)]);
                }
            }
            if (!flowWork.empty()) {
                const auto [b, s] = flowWork.back();
                flowWork.pop_back();
                const int target = func.block(b).succs[
                    static_cast<size_t>(s)];
                if (!blockExec[static_cast<size_t>(target)]) {
                    visitBlock(target);
                } else {
                    // Newly executable edge into a visited block:
                    // its phi meets gain a slot.
                    for (const Instr &in :
                         func.block(target).instrs) {
                        if (in.op != Op::Phi)
                            break;
                        visitPhi(target, in);
                    }
                }
            }
        }
    }

    void
    visitBlock(int b)
    {
        blockExec[static_cast<size_t>(b)] = 1;
        for (const Instr &in : func.block(b).instrs)
            visitInstr(b, in);
    }
};

/** Forward every use through mov chains, then delete the movs. */
bool
forwardCopies(Function &func)
{
    const size_t nv = static_cast<size_t>(func.numVregs());
    std::vector<Vreg> fwd(nv, NO_VREG);
    bool any = false;
    for (int b : func.reversePostOrder()) {
        for (const Instr &in : func.block(b).instrs) {
            if (in.op == Op::Mov && in.dst != NO_VREG) {
                fwd[static_cast<size_t>(in.dst)] = in.s0();
                any = true;
            }
        }
    }
    if (!any)
        return false;
    auto resolve = [&](Vreg v) {
        while (fwd[static_cast<size_t>(v)] != NO_VREG)
            v = fwd[static_cast<size_t>(v)];
        return v;
    };
    for (int b : func.reversePostOrder()) {
        Block &blk = func.block(b);
        std::vector<Instr> out;
        out.reserve(blk.instrs.size());
        for (Instr &in : blk.instrs) {
            if (in.op == Op::Mov)
                continue;
            for (Vreg &s : in.srcs)
                s = resolve(s);
            out.push_back(std::move(in));
        }
        blk.instrs = std::move(out);
    }
    return true;
}

} // namespace

bool
sccp(Function &func)
{
    AREGION_ASSERT(func.ssaForm, "sccp requires SSA form");
    Solver solver(func);
    solver.run();

    bool changed = false;
    const auto rpo = func.reversePostOrder();
    for (int b : rpo) {
        if (!solver.blockExec[static_cast<size_t>(b)])
            continue;   // pruned below once const branches rewrite
        Block &blk = func.block(b);
        auto cst = [&](Vreg v) -> std::optional<int64_t> {
            const LatVal lv = solver.val(v);
            if (lv.kind == LatVal::Const)
                return lv.value;
            return std::nullopt;
        };
        auto to_const = [&](Instr &target, int64_t v) {
            target.op = Op::Const;
            target.srcs.clear();
            target.phiBlocks.clear();
            target.imm = v;
            changed = true;
        };
        auto to_mov = [&](Instr &target, Vreg src) {
            target.op = Op::Mov;
            target.srcs = {src};
            target.imm = 0;
            changed = true;
        };

        std::vector<Instr> out;
        out.reserve(blk.instrs.size());
        // Phis whose meet is constant become Const defs; they must
        // slot in after the surviving phis to keep phis leading.
        std::vector<Instr> loweredPhis;
        for (Instr &in : blk.instrs) {
            if (in.op == Op::Phi) {
                if (const auto v = cst(in.dst)) {
                    to_const(in, *v);
                    loweredPhis.push_back(std::move(in));
                } else {
                    out.push_back(std::move(in));
                }
                continue;
            }
            if (!loweredPhis.empty()) {
                for (Instr &phi : loweredPhis)
                    out.push_back(std::move(phi));
                loweredPhis.clear();
            }
            if (isBinop(in.op)) {
                const auto a = cst(in.s0());
                const auto b2 = cst(in.s1());
                if (a && b2) {
                    if (const auto f = foldBinop(in.op, *a, *b2))
                        to_const(in, *f);
                } else if (b2) {
                    // Algebraic identities with a constant rhs.
                    if ((in.op == Op::Add || in.op == Op::Sub ||
                         in.op == Op::Or || in.op == Op::Xor ||
                         in.op == Op::Shl || in.op == Op::Shr) &&
                        *b2 == 0) {
                        to_mov(in, in.s0());
                    } else if (in.op == Op::Mul && *b2 == 1) {
                        to_mov(in, in.s0());
                    } else if ((in.op == Op::Mul || in.op == Op::And) &&
                               *b2 == 0) {
                        to_const(in, 0);
                    }
                } else if (a) {
                    if (in.op == Op::Add && *a == 0)
                        to_mov(in, in.s1());
                    else if (in.op == Op::Mul && *a == 1)
                        to_mov(in, in.s1());
                    else if ((in.op == Op::Mul || in.op == Op::And) &&
                             *a == 0)
                        to_const(in, 0);
                }
            } else if (in.op == Op::Mov) {
                if (const auto a = cst(in.s0()))
                    to_const(in, *a);
            } else if (in.op == Op::Assert) {
                // An assert that provably never fires (respecting its
                // polarity) disappears.
                const auto a = cst(in.s0());
                if (a && (in.imm ? *a != 0 : *a == 0)) {
                    changed = true;
                    continue;
                }
            } else if (in.op == Op::BoundsCheck) {
                const auto idx = cst(in.s0());
                const auto len = cst(in.s1());
                if (idx && len && *idx >= 0 && *idx < *len) {
                    changed = true;
                    continue;
                }
            } else if (in.op == Op::DivCheck || in.op == Op::SizeCheck) {
                const auto a = cst(in.s0());
                if (a && ((in.op == Op::DivCheck && *a != 0) ||
                          (in.op == Op::SizeCheck && *a >= 0))) {
                    changed = true;
                    continue;
                }
            } else if (in.op == Op::Branch) {
                if (const auto a = cst(in.s0())) {
                    const int keep = *a != 0 ? 0 : 1;
                    const int target = blk.succs[
                        static_cast<size_t>(keep)];
                    const int dropped = blk.succs[
                        static_cast<size_t>(1 - keep)];
                    in.op = Op::Jump;
                    in.srcs.clear();
                    blk.succs = {target};
                    blk.succCount = {blk.execCount};
                    func.block(dropped).dropPhiSlot(b);
                    changed = true;
                }
            }
            out.push_back(std::move(in));
        }
        blk.instrs = std::move(out);
    }

    changed |= forwardCopies(func);

    if (changed)
        func.compact();
    return changed;
}

} // namespace aregion::opt

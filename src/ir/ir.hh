/**
 * @file
 * The compiler's intermediate representation.
 *
 * A Function is a control-flow graph of Blocks; each Block holds a
 * straight-line sequence of Instrs ending in a terminator. Virtual
 * registers (Vreg) are unbounded. Translation emits conventional
 * (non-SSA) code; ir::buildSSA (ssa.hh) rewrites a function into SSA
 * form — unique defs, dominance of uses, Phi at joins — which the
 * sparse optimization passes (SCCP, GVN, SSA-DCE) require, and
 * ir::destroySSA lowers out of SSA before region formation and
 * machine-code emission. Function::ssaForm tracks which convention a
 * function is currently in.
 *
 * Atomic regions (the paper's contribution) are represented the way
 * the paper recommends: like try/catch. A region's entry block starts
 * with AtomicBegin whose `aux` names a RegionInfo carrying the
 * alternate (non-speculative) target; Assert instructions conditionally
 * abort to that target with all region side effects undone.
 */

#ifndef AREGION_IR_IR_HH
#define AREGION_IR_IR_HH

#include <algorithm>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "support/logging.hh"
#include "vm/program.hh"

namespace aregion::ir {

/** Virtual register id; unbounded. */
using Vreg = int;
constexpr Vreg NO_VREG = -1;

/** IR opcodes. */
enum class Op {
    // Pure value producers.
    Const,          ///< dst = imm
    Mov,            ///< dst = s0
    Phi,            ///< dst = phi(srcs); srcs[i] flows in from block
                    ///< phiBlocks[i]. SSA only; never reaches codegen.
    Add, Sub, Mul, Div, Rem, And, Or, Xor, Shl, Shr, ///< dst = s0 op s1
    CmpEq, CmpNe, CmpLt, CmpLe, CmpGt, CmpGe,        ///< dst = s0 op s1

    // Memory.
    LoadField,      ///< dst = s0.field[aux]
    StoreField,     ///< s0.field[aux] = s1
    LoadElem,       ///< dst = s0[s1]
    StoreElem,      ///< s0[s1] = s2
    LoadRaw,        ///< dst = mem[s0 + imm] (header/len/lock words)
    StoreRaw,       ///< mem[s0 + imm] = s1
    LoadSubtype,    ///< dst = subtype-matrix[s0 = class id][aux = class]

    // Safety checks: no result; trap (or abort, inside a region) on
    // failure. Redundant checks are removed by ordinary CSE.
    NullCheck,      ///< s0 != null
    BoundsCheck,    ///< 0 <= s0 < s1 (s1 = length)
    DivCheck,       ///< s0 != 0 (divisor)
    SizeCheck,      ///< s0 >= 0 (array allocation size)
    TypeCheck,      ///< s0 (a 0/1 subtype flag) != 0; ClassCast on fail

    // Allocation.
    NewObject,      ///< dst = new instance of class aux
    NewArray,       ///< dst = new array of length s0

    // Calls. `aux` is the callee MethodId (CallStatic) or the vtable
    // slot (CallVirtual, receiver = s0). dst may be NO_VREG.
    CallStatic,
    CallVirtual,

    // Monitors (receiver = s0).
    MonitorEnter,
    MonitorExit,

    // Misc runtime.
    Safepoint,      ///< GC/yield poll
    Print,          ///< emit s0 to the observable output
    Marker,         ///< sampling marker, id = imm
    Spawn,          ///< start thread running method aux(args = srcs)

    // Atomic region primitives (Section 3.2 of the paper).
    AtomicBegin,    ///< aux = region id; must start its block
    AtomicEnd,      ///< aux = region id; commits the region
    Assert,         ///< abort region if s0 != 0 (imm = 0) or if
                    ///< s0 == 0 (imm = 1); aux = abort id

    // Terminators.
    Branch,         ///< if s0 != 0 goto succs[0] else succs[1]
    Jump,           ///< goto succs[0]
    Ret,            ///< return s0 (srcs empty for void return)
};

const char *opName(Op op);

/** True for Branch/Jump/Ret. */
bool isTerminator(Op op);

/** True if the op only reads its sources and writes dst (no memory,
 *  no control, no runtime effect): candidate for CSE and DCE. */
bool isPureValue(Op op);

/** True for the safety-check ops. */
bool isCheck(Op op);

/** True if the op reads mutable memory (loads). */
bool isLoad(Op op);

/** True if the op may write memory or have another side effect that
 *  keeps it alive regardless of dst liveness. */
bool hasSideEffect(Op op);

struct Block;

/** Index of the block's first instruction that is not a Phi, Mov, or
 *  Const. A region entry block is [phis*, copies*, AtomicBegin,
 *  Jump]: phis are pre-checkpoint parallel copies and out-of-SSA
 *  lowering materialises them as Mov/Const runs, all of which execute
 *  before the checkpoint is taken. */
size_t firstEffectiveInstr(const Block &blk);

/** True if the block opens an atomic region (AtomicBegin at its first
 *  effective instruction). */
bool isRegionEntryBlock(const Block &blk);

/** One IR instruction. */
struct Instr
{
    Op op;
    Vreg dst = NO_VREG;
    std::vector<Vreg> srcs;
    int64_t imm = 0;        ///< constant / raw offset / marker id
    int aux = 0;            ///< field idx, class id, callee, slot,
                            ///< region id, or abort id (by op)
    int bcPc = -1;          ///< originating bytecode pc (diagnostics)
    int bcMethod = -1;      ///< originating method (profile lookups
                            ///< survive inlining and cloning)

    /** Phi only: incoming block id per source, parallel to srcs.
     *  Self-describing (not tied to predecessor-list order) so CFG
     *  edits can update arity checks robustly. */
    std::vector<int> phiBlocks;

    Vreg s0() const { return srcs.at(0); }
    Vreg s1() const { return srcs.at(1); }
    Vreg s2() const { return srcs.at(2); }

    std::string toString() const;

    bool operator==(const Instr &) const = default;
};

/** A basic block. */
struct Block
{
    int id = -1;
    std::vector<Instr> instrs;

    /** Successor block ids; Branch: [taken, fallthrough]. */
    std::vector<int> succs;

    /** Profile: executions of this block (scaled after inlining). */
    double execCount = 0;

    /** Profile: executions per successor edge (parallel to succs). */
    std::vector<double> succCount;

    /** Atomic region this block belongs to, or -1. */
    int regionId = -1;

    bool operator==(const Block &) const = default;

    /** Calls end blocks: a block whose instruction before the
     *  terminator is a call absorbs no further instructions. Region
     *  formation relies on it, so simplify-cfg never merges past one. */
    bool endsWithCall() const;

    /** Remove each phi's slot for the edge from block @p pred (that
     *  edge was dropped). */
    void dropPhiSlot(int pred);

    const Instr &terminator() const
    {
        AREGION_ASSERT(!instrs.empty(), "empty block ", id);
        return instrs.back();
    }

    Instr &terminator()
    {
        AREGION_ASSERT(!instrs.empty(), "empty block ", id);
        return instrs.back();
    }
};

/** Metadata for one atomic region within a function. */
struct RegionInfo
{
    int id = -1;
    int entryBlock = -1;    ///< block starting with AtomicBegin
    int altBlock = -1;      ///< non-speculative re-entry point
    /** Map from abort id to the (method, pc) of the converted cold
     *  branch (for adaptive recompilation diagnostics). */
    std::map<int, std::pair<int, int>> abortOrigins;

    bool operator==(const RegionInfo &) const = default;
};

/** A function under compilation. */
class Function
{
  public:
    std::string name;
    vm::MethodId methodId = vm::NO_METHOD;
    int numArgs = 0;        ///< args live in vregs [0, numArgs)
    int entry = 0;

    /** True while the function is in SSA form: every vreg has a
     *  unique def that dominates all its uses, joins carry Phi
     *  instructions, and the verifier enforces the invariant.
     *  Cleared by opt::destroySSA before machine-code emission. */
    bool ssaForm = false;

    std::vector<RegionInfo> regions;

    Function() = default;
    /** Deep copy: the copy owns its own blocks. */
    Function(const Function &other);
    Function &operator=(const Function &other);
    Function(Function &&) = default;
    Function &operator=(Function &&) = default;

    /** Field by field: every block (instructions, successors, edge
     *  and block counts, region id), regions, entry, vreg count,
     *  form, name, method and arity. */
    bool operator==(const Function &other) const;

    Block &newBlock();
    Block &block(int id);
    const Block &block(int id) const;
    int numBlocks() const { return static_cast<int>(blocksVec.size()); }

    Vreg newVreg() { return nextVreg++; }
    int numVregs() const { return nextVreg; }
    void ensureVregsAtLeast(int n) { nextVreg = std::max(nextVreg, n); }

    /** Reset the vreg count after a dense renumbering (destroySSA);
     *  the caller guarantees no instruction names a vreg >= n. */
    void resetVregCount(int n) { nextVreg = n; }

    /** Predecessor lists (recomputed; invalidated by CFG edits). */
    std::vector<std::vector<int>> computePreds() const;

    /** Reverse post-order over reachable blocks from entry. */
    std::vector<int> reversePostOrder() const;

    /** Sum of instruction counts over reachable blocks. */
    int countInstrs() const;

    /**
     * Drop unreachable blocks and renumber survivors in RPO order,
     * remapping successor lists and region metadata (regions whose
     * entry died are dropped). Returns old-id -> new-id (-1 if gone).
     */
    std::vector<int> compact();

  private:
    std::vector<std::unique_ptr<Block>> blocksVec;
    Vreg nextVreg = 0;
};

/** A whole program in IR form (one Function per compiled method). */
struct Module
{
    const vm::Program *prog = nullptr;
    std::map<vm::MethodId, Function> funcs;
};

} // namespace aregion::ir

#endif // AREGION_IR_IR_HH

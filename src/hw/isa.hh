/**
 * @file
 * The machine instruction set, including the paper's three atomic
 * execution primitives (Section 3.2):
 *
 *   aregion_begin <alt PC>  (MKind::ABegin, target = alternate pc)
 *   aregion_end             (MKind::AEnd)
 *   aregion_abort           (MKind::AAbort)
 *
 * Abort causes are exposed to software through two registers modeled
 * as fields of the abort event: the cause and the pc of the
 * responsible instruction, which the runtime maps back to the
 * compiler's assert ids for adaptive recompilation.
 *
 * Machine code is a flat list of uops per method; the global pc of a
 * uop is (methodId << 16 | offset), which the branch predictor and
 * the diagnosis registers use.
 */

#ifndef AREGION_HW_ISA_HH
#define AREGION_HW_ISA_HH

#include <algorithm>
#include <cstdint>
#include <initializer_list>
#include <map>
#include <string>
#include <vector>

#include "vm/program.hh"

namespace aregion::hw {

/** Machine register index (virtual; frames are register files). */
using MReg = int;
constexpr MReg NO_MREG = -1;

/**
 * Source-operand list of a uop. Up to four registers — every uop
 * shape except long call-argument lists — live inline in the MUop
 * itself, so the executor's operand fetch reads the uop's own cache
 * line instead of chasing a per-uop heap allocation. Longer lists
 * spill to an owned heap array. Same 24-byte footprint as the
 * std::vector<MReg> it replaces.
 */
class SrcList
{
  public:
    SrcList() = default;
    SrcList(std::initializer_list<MReg> regs)
    {
        for (MReg r : regs)
            push_back(r);
    }
    SrcList(const std::vector<MReg> &regs)
    {
        for (MReg r : regs)
            push_back(r);
    }
    SrcList(const SrcList &o) { copyFrom(o); }
    SrcList(SrcList &&o) noexcept { stealFrom(o); }

    SrcList &
    operator=(const SrcList &o)
    {
        if (this != &o) {
            clear();
            copyFrom(o);
        }
        return *this;
    }

    SrcList &
    operator=(SrcList &&o) noexcept
    {
        if (this != &o) {
            clear();
            stealFrom(o);
        }
        return *this;
    }

    SrcList &
    operator=(const std::vector<MReg> &regs)
    {
        clear();
        for (MReg r : regs)
            push_back(r);
        return *this;
    }

    ~SrcList() { clear(); }

    void
    push_back(MReg r)
    {
        if (count < INLINE) {
            inl[count++] = r;
            return;
        }
        if (count == INLINE) {
            // First spill: move the inline regs to a heap array.
            MReg *arr = new MReg[2 * INLINE];
            std::copy(inl, inl + INLINE, arr);
            spill.arr = arr;
            spill.cap = 2 * INLINE;
        } else if (count == spill.cap) {
            MReg *arr = new MReg[2 * spill.cap];
            std::copy(spill.arr, spill.arr + count, arr);
            delete[] spill.arr;
            spill.arr = arr;
            spill.cap *= 2;
        }
        spill.arr[count++] = r;
    }

    size_t size() const { return count; }
    bool empty() const { return count == 0; }
    const MReg *data() const { return count <= INLINE ? inl : spill.arr; }
    const MReg *begin() const { return data(); }
    const MReg *end() const { return data() + count; }
    MReg operator[](size_t i) const { return data()[i]; }
    MReg back() const { return data()[count - 1]; }

  private:
    static constexpr uint32_t INLINE = 4;

    struct Spill
    {
        MReg *arr;
        uint32_t cap;
    };

    void
    clear()
    {
        if (count > INLINE)
            delete[] spill.arr;
        count = 0;
    }

    void
    copyFrom(const SrcList &o)
    {
        count = o.count;
        if (count > INLINE) {
            spill.arr = new MReg[o.spill.cap];
            spill.cap = o.spill.cap;
            std::copy(o.spill.arr, o.spill.arr + count, spill.arr);
        } else {
            std::copy(o.inl, o.inl + count, inl);
        }
    }

    void
    stealFrom(SrcList &o)
    {
        count = o.count;
        if (count > INLINE) {
            spill = o.spill;
            o.count = 0;
        } else {
            std::copy(o.inl, o.inl + count, inl);
        }
    }

    union {
        MReg inl[INLINE];
        Spill spill;
    };
    uint32_t count = 0;
};

/** ALU operation for MKind::Alu. */
enum class AluOp : uint8_t {
    Add, Sub, Mul, Div, Rem, And, Or, Xor, Shl, Shr,
    CmpEq, CmpNe, CmpLt, CmpLe, CmpGt, CmpGe,
    CmpULt,     ///< unsigned < (single-uop bounds checks)
};

/** Machine opcode. */
enum class MKind : uint8_t {
    Imm,        ///< dst = imm
    Mov,        ///< dst = s0
    Alu,        ///< dst = s0 alu s1 (Div/Rem trap on zero divisor)
    Load,       ///< dst = mem[s0 + imm (+ s1)]
    Store,      ///< mem[s0 + imm (+ s1 when 3 srcs)] = last src
    Br,         ///< if s0 (!= 0, or == 0 when brIfZero) goto target
    Jmp,        ///< goto target
    CallDirect, ///< aux = callee method; srcs = args
    CallIndirect,///< s0 holds callee method id; srcs[1..] = args
    Ret,        ///< return s0 (if present)
    Cas,        ///< dst = mem[s0+imm]; if dst==s1 store s2; serializing
    TidWord,    ///< dst = lock word (current thread, depth 1)
    LockSlow,   ///< contended/recursive monitor enter on s0; blocking
    UnlockSlow, ///< recursive monitor exit on s0
    Alloc,      ///< dst = new object (aux=class) or array (s0=len)
    YieldLoad,  ///< dst = own safepoint flag (a real load)
    Print,      ///< emit s0 to the observable output
    Marker,     ///< sampling marker, id = imm
    Spawn,      ///< start thread at method aux with args = srcs
    Trap,       ///< raise trap aux (TrapKind); aborts active region
    /**
     * `aregion_begin <alt pc>` (paper Section 3): checkpoint the
     * register state and enter atomic execution for static region
     * `aux`. All stores are buffered (L1-line write set) and all
     * loads tracked (read set) until AEnd commits or an abort rolls
     * everything back and redirects fetch to `target`, the
     * non-speculative alternate path. On the paper's checkpoint
     * substrate this uop is free; TimingConfig::stallBegin() and
     * ::singleInflight() model the degraded Figure 9 variants.
     * Nesting is flattened (Section 3: a nested begin is a no-op).
     */
    ABegin,
    /**
     * `aregion_end` (paper Section 3): commit — atomically publish
     * the buffered write set and leave speculative execution. The
     * read/write-set occupancy at this instant feeds the
     * `machine.region.{read,write}_lines` telemetry (Section 6.2's
     * footprint analysis).
     */
    AEnd,
    /**
     * `aregion_abort` (paper Sections 3–4): explicitly discard the
     * region. The compiler plants it on cold edges it converted to
     * asserts (`aux` = assert id, exposed to the adaptive
     * recompiler through the abort-PC register, Section 7); rolls
     * back to the checkpoint and resumes at the ABegin's alternate
     * pc with AbortCause::Explicit recorded.
     */
    AAbort,
    Nop,
};

const char *mkindName(MKind kind);

/** One machine uop. */
struct MUop
{
    MKind kind = MKind::Nop;
    AluOp alu = AluOp::Add;
    MReg dst = NO_MREG;
    SrcList srcs;
    int64_t imm = 0;        ///< immediate / address displacement
    int target = -1;        ///< branch/alt target (uop offset)
    int aux = 0;            ///< callee / class / region / abort / trap
    bool brIfZero = false;  ///< Br polarity

    /** Provenance for diagnosis and profiling. */
    int bcMethod = -1;
    int bcPc = -1;

    std::string toString() const;
};

/** A compiled method. */
struct MachineFunction
{
    vm::MethodId methodId = vm::NO_METHOD;
    std::string name;
    int numArgs = 0;
    int numRegs = 0;
    std::vector<MUop> code;

    /** Static regions of the originating IR (id -> abort origins). */
    std::map<int, std::map<int, std::pair<int, int>>> regionAborts;
};

/** Global pc: method id in the high bits, uop offset in the low 16. */
constexpr uint64_t
globalPc(vm::MethodId method, int offset)
{
    return (static_cast<uint64_t>(method) << 16) |
           static_cast<uint64_t>(offset);
}

/** A whole compiled program. */
struct MachineProgram
{
    const vm::Program *prog = nullptr;
    std::map<vm::MethodId, MachineFunction> funcs;

    const MachineFunction &func(vm::MethodId m) const;

    /** Total static uop count. */
    int totalUops() const;
};

} // namespace aregion::hw

#endif // AREGION_HW_ISA_HH

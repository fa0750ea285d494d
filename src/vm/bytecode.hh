/**
 * @file
 * Bytecode definition for the managed-language VM substrate.
 *
 * The paper evaluates atomic regions inside a JVM; we substitute a
 * small register-based, class-oriented bytecode with the same
 * structural features the optimizations depend on: implicit null and
 * bounds checks, frequent small virtual methods, monitors
 * (synchronized methods), biased branches, and GC safepoints.
 */

#ifndef AREGION_VM_BYTECODE_HH
#define AREGION_VM_BYTECODE_HH

#include <cstdint>
#include <string>
#include <vector>

namespace aregion::vm {

/** Register index inside a method frame. */
using Reg = uint16_t;

/** Sentinel destination register for calls whose result is unused. */
constexpr Reg NO_REG = 0xffff;

/** Bytecode opcodes. */
enum class Bc : uint8_t {
    Const,      ///< a <- imm
    Mov,        ///< a <- b

    Add, Sub, Mul, Div, Rem,        ///< a <- b op c (Div/Rem trap on 0)
    And, Or, Xor, Shl, Shr,         ///< a <- b op c

    CmpEq, CmpNe, CmpLt, CmpLe, CmpGt, CmpGe, ///< a <- (b op c) ? 1 : 0

    Branch,     ///< if a != 0 goto imm
    Jump,       ///< goto imm

    NewObject,  ///< a <- new instance of class c
    NewArray,   ///< a <- new array of length reg b (traps if negative)

    GetField,   ///< a <- b.field[c]     (null check)
    PutField,   ///< a.field[c] <- b     (null check)

    ALoad,      ///< a <- b[c]           (null + bounds check)
    AStore,     ///< a[b] <- c           (null + bounds check)
    ALength,    ///< a <- b.length       (null check)

    CallStatic, ///< a <- call method imm(args...)
    CallVirtual,///< a <- call vtable slot b of args[0] (null check)

    Ret,        ///< return a
    RetVoid,    ///< return

    MonitorEnter, ///< lock object in a (null check)
    MonitorExit,  ///< unlock object in a (null check)

    InstanceOf, ///< a <- (b instanceof class c) ? 1 : 0 (null -> 0)
    CheckCast,  ///< trap unless a is null or instance of class c

    Safepoint,  ///< GC/yield poll (loop back edges)
    Print,      ///< append reg a to the observable output stream
    Marker,     ///< sampling marker, id = imm (see runtime::SampleSpec)
    Spawn,      ///< start a new thread running method imm(args...)
};

/** Human-readable opcode name. */
const char *bcName(Bc op);

/** True for opcodes that unconditionally end straight-line execution. */
bool bcIsTerminator(Bc op);

/**
 * One bytecode instruction. Field meaning depends on the opcode; see
 * the Bc enum comments (a/b/c are registers unless stated otherwise).
 */
struct BcInstr
{
    Bc op;
    Reg a = 0;
    Reg b = 0;
    uint16_t c = 0;             ///< register, field index, or class id
    int64_t imm = 0;            ///< constant, branch target, method id
    std::vector<Reg> args;      ///< call/spawn arguments

    std::string toString() const;
};

} // namespace aregion::vm

#endif // AREGION_VM_BYTECODE_HH

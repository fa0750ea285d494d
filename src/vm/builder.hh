/**
 * @file
 * Fluent construction API for programs and method bodies.
 *
 * Workloads, examples, and tests build bytecode through this API.
 * Classes are declared with their full field list; methods are
 * declared first (so call sites can reference them) and defined later
 * through a MethodBuilder with label-based control flow.
 */

#ifndef AREGION_VM_BUILDER_HH
#define AREGION_VM_BUILDER_HH

#include <map>
#include <memory>
#include <string>
#include <vector>

#include "vm/program.hh"

namespace aregion::vm {

class ProgramBuilder;

/** Forward-referencable jump target inside one method body. */
struct Label
{
    int id = -1;
};

/**
 * Builds one method body. Registers are allocated on demand; emit
 * helpers return the destination register for chaining.
 */
class MethodBuilder
{
  public:
    MethodBuilder(ProgramBuilder &owner, MethodId method);

    /** Registers [0, numArgs) hold the arguments. */
    Reg arg(int index) const;
    Reg self() const { return arg(0); }
    Reg newReg();

    Label newLabel();
    void bind(Label label);

    /** a <- imm */
    Reg constant(int64_t value);
    void constTo(Reg dst, int64_t value);
    void mov(Reg dst, Reg src);

    Reg binop(Bc op, Reg lhs, Reg rhs);
    void binopTo(Bc op, Reg dst, Reg lhs, Reg rhs);
    Reg add(Reg a, Reg b) { return binop(Bc::Add, a, b); }
    Reg sub(Reg a, Reg b) { return binop(Bc::Sub, a, b); }
    Reg mul(Reg a, Reg b) { return binop(Bc::Mul, a, b); }
    Reg cmp(Bc op, Reg a, Reg b) { return binop(op, a, b); }

    /** Add an immediate: dst <- src + imm (emits a Const). */
    Reg addImm(Reg src, int64_t imm);

    void branchIf(Reg cond, Label target);
    /** Compare-and-branch convenience: if (a op b) goto target. */
    void branchCmp(Bc cmp_op, Reg a, Reg b, Label target);
    void jump(Label target);

    Reg newObject(ClassId cls);
    Reg newArray(Reg length);

    Reg getField(Reg obj, int field);
    void getFieldTo(Reg dst, Reg obj, int field);
    void putField(Reg obj, int field, Reg value);

    Reg aload(Reg arr, Reg idx);
    void aloadTo(Reg dst, Reg arr, Reg idx);
    void astore(Reg arr, Reg idx, Reg value);
    Reg alength(Reg arr);

    Reg callStatic(MethodId callee, const std::vector<Reg> &args);
    void callStaticVoid(MethodId callee, const std::vector<Reg> &args);
    Reg callVirtual(int slot, const std::vector<Reg> &args);

    void ret(Reg value);
    void retVoid();

    void monitorEnter(Reg obj);
    void monitorExit(Reg obj);

    Reg instanceOf(Reg obj, ClassId cls);
    void checkCast(Reg obj, ClassId cls);

    void safepoint();
    void print(Reg value);
    void marker(int64_t id);
    void spawn(MethodId callee, const std::vector<Reg> &args);

    /** Resolve labels and install the body into the program. */
    void finish();

  private:
    void emit(BcInstr instr);

    ProgramBuilder &owner;
    MethodId method;
    int numArgs;
    Reg nextReg;
    std::vector<BcInstr> code;
    std::vector<int> labelTargets;              ///< label id -> pc
    std::vector<std::pair<size_t, int>> fixups; ///< (instr, label id)
    bool finished = false;
};

/** Builds a whole program. */
class ProgramBuilder
{
  public:
    /** Declare a class; fields listed are the class's own fields. */
    ClassId declareClass(const std::string &name,
                         const std::vector<std::string> &own_fields,
                         ClassId super = NO_CLASS);

    /** Index of a field (own or inherited) by name. */
    int fieldIndex(ClassId cls, const std::string &name) const;

    /** Global virtual-slot namespace: same name -> same slot. */
    int virtualSlot(const std::string &name);

    /** Declare a method so call sites can reference it. */
    MethodId declareMethod(const std::string &name, int num_args,
                           bool is_synchronized = false);

    /** Declare and install a virtual method on a class's slot. */
    MethodId declareVirtual(ClassId cls, const std::string &slot_name,
                            int num_args, bool is_synchronized = false);

    /** Install an already-declared method into a class's slot. */
    void bindVirtual(ClassId cls, const std::string &slot_name,
                     MethodId method);

    /** Begin defining a declared method's body. */
    MethodBuilder define(MethodId method);

    void setMain(MethodId method);

    /** Finalize; panics if any declared method lacks a body. */
    Program build();

    Program &programRef() { return prog; }

  private:
    friend class MethodBuilder;

    Program prog;
    std::map<std::string, int> slots;
    std::vector<bool> defined;
};

} // namespace aregion::vm

#endif // AREGION_VM_BUILDER_HH

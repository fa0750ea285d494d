#include "vm/builder.hh"

#include "support/logging.hh"

namespace aregion::vm {

MethodBuilder::MethodBuilder(ProgramBuilder &owner_, MethodId method_)
    : owner(owner_), method(method_)
{
    const MethodInfo &info = owner.prog.method(method);
    numArgs = info.numArgs;
    nextReg = static_cast<Reg>(numArgs);
}

Reg
MethodBuilder::arg(int index) const
{
    AREGION_ASSERT(index >= 0 && index < numArgs, "bad arg index ", index);
    return static_cast<Reg>(index);
}

Reg
MethodBuilder::newReg()
{
    AREGION_ASSERT(nextReg < NO_REG - 1, "register budget exceeded");
    return nextReg++;
}

Label
MethodBuilder::newLabel()
{
    labelTargets.push_back(-1);
    return Label{static_cast<int>(labelTargets.size()) - 1};
}

void
MethodBuilder::bind(Label label)
{
    AREGION_ASSERT(label.id >= 0 &&
                   static_cast<size_t>(label.id) < labelTargets.size(),
                   "bind of undeclared label");
    AREGION_ASSERT(labelTargets[static_cast<size_t>(label.id)] == -1,
                   "label bound twice");
    labelTargets[static_cast<size_t>(label.id)] =
        static_cast<int>(code.size());
}

void
MethodBuilder::emit(BcInstr instr)
{
    AREGION_ASSERT(!finished, "emit after finish");
    code.push_back(std::move(instr));
}

Reg
MethodBuilder::constant(int64_t value)
{
    const Reg dst = newReg();
    constTo(dst, value);
    return dst;
}

void
MethodBuilder::constTo(Reg dst, int64_t value)
{
    emit({Bc::Const, dst, 0, 0, value, {}});
}

void
MethodBuilder::mov(Reg dst, Reg src)
{
    emit({Bc::Mov, dst, src, 0, 0, {}});
}

Reg
MethodBuilder::binop(Bc op, Reg lhs, Reg rhs)
{
    const Reg dst = newReg();
    binopTo(op, dst, lhs, rhs);
    return dst;
}

void
MethodBuilder::binopTo(Bc op, Reg dst, Reg lhs, Reg rhs)
{
    emit({op, dst, lhs, static_cast<uint16_t>(rhs), 0, {}});
}

Reg
MethodBuilder::addImm(Reg src, int64_t imm)
{
    const Reg tmp = constant(imm);
    return add(src, tmp);
}

void
MethodBuilder::branchIf(Reg cond, Label target)
{
    BcInstr in{Bc::Branch, cond, 0, 0, 0, {}};
    fixups.emplace_back(code.size(), target.id);
    emit(std::move(in));
}

void
MethodBuilder::branchCmp(Bc cmp_op, Reg a, Reg b, Label target)
{
    branchIf(cmp(cmp_op, a, b), target);
}

void
MethodBuilder::jump(Label target)
{
    BcInstr in{Bc::Jump, 0, 0, 0, 0, {}};
    fixups.emplace_back(code.size(), target.id);
    emit(std::move(in));
}

Reg
MethodBuilder::newObject(ClassId cls)
{
    const Reg dst = newReg();
    emit({Bc::NewObject, dst, 0, static_cast<uint16_t>(cls), 0, {}});
    return dst;
}

Reg
MethodBuilder::newArray(Reg length)
{
    const Reg dst = newReg();
    emit({Bc::NewArray, dst, length, 0, 0, {}});
    return dst;
}

Reg
MethodBuilder::getField(Reg obj, int field)
{
    const Reg dst = newReg();
    getFieldTo(dst, obj, field);
    return dst;
}

void
MethodBuilder::getFieldTo(Reg dst, Reg obj, int field)
{
    emit({Bc::GetField, dst, obj, static_cast<uint16_t>(field), 0, {}});
}

void
MethodBuilder::putField(Reg obj, int field, Reg value)
{
    emit({Bc::PutField, obj, value, static_cast<uint16_t>(field), 0, {}});
}

Reg
MethodBuilder::aload(Reg arr, Reg idx)
{
    const Reg dst = newReg();
    aloadTo(dst, arr, idx);
    return dst;
}

void
MethodBuilder::aloadTo(Reg dst, Reg arr, Reg idx)
{
    emit({Bc::ALoad, dst, arr, idx, 0, {}});
}

void
MethodBuilder::astore(Reg arr, Reg idx, Reg value)
{
    emit({Bc::AStore, arr, idx, static_cast<uint16_t>(value), 0, {}});
}

Reg
MethodBuilder::alength(Reg arr)
{
    const Reg dst = newReg();
    emit({Bc::ALength, dst, arr, 0, 0, {}});
    return dst;
}

Reg
MethodBuilder::callStatic(MethodId callee, const std::vector<Reg> &args)
{
    const Reg dst = newReg();
    emit({Bc::CallStatic, dst, 0, 0, callee, args});
    return dst;
}

void
MethodBuilder::callStaticVoid(MethodId callee, const std::vector<Reg> &args)
{
    emit({Bc::CallStatic, NO_REG, 0, 0, callee, args});
}

Reg
MethodBuilder::callVirtual(int slot, const std::vector<Reg> &args)
{
    const Reg dst = newReg();
    emit({Bc::CallVirtual, dst, static_cast<Reg>(slot), 0, 0, args});
    return dst;
}

void
MethodBuilder::ret(Reg value)
{
    emit({Bc::Ret, value, 0, 0, 0, {}});
}

void
MethodBuilder::retVoid()
{
    emit({Bc::RetVoid, 0, 0, 0, 0, {}});
}

void
MethodBuilder::monitorEnter(Reg obj)
{
    emit({Bc::MonitorEnter, obj, 0, 0, 0, {}});
}

void
MethodBuilder::monitorExit(Reg obj)
{
    emit({Bc::MonitorExit, obj, 0, 0, 0, {}});
}

Reg
MethodBuilder::instanceOf(Reg obj, ClassId cls)
{
    const Reg dst = newReg();
    emit({Bc::InstanceOf, dst, obj, static_cast<uint16_t>(cls), 0, {}});
    return dst;
}

void
MethodBuilder::checkCast(Reg obj, ClassId cls)
{
    emit({Bc::CheckCast, obj, 0, static_cast<uint16_t>(cls), 0, {}});
}

void
MethodBuilder::safepoint()
{
    emit({Bc::Safepoint, 0, 0, 0, 0, {}});
}

void
MethodBuilder::print(Reg value)
{
    emit({Bc::Print, value, 0, 0, 0, {}});
}

void
MethodBuilder::marker(int64_t id)
{
    emit({Bc::Marker, 0, 0, 0, id, {}});
}

void
MethodBuilder::spawn(MethodId callee, const std::vector<Reg> &args)
{
    emit({Bc::Spawn, 0, 0, 0, callee, args});
}

void
MethodBuilder::finish()
{
    AREGION_ASSERT(!finished, "finish called twice");
    finished = true;
    for (const auto &[index, label] : fixups) {
        const int target = labelTargets[static_cast<size_t>(label)];
        AREGION_ASSERT(target >= 0, "unbound label ", label,
                       " in method ", method);
        code[index].imm = target;
    }
    MethodInfo &info = owner.prog.methodMutable(method);
    info.numRegs = nextReg;
    info.code = std::move(code);
    owner.defined[static_cast<size_t>(method)] = true;
}

ClassId
ProgramBuilder::declareClass(const std::string &name,
                             const std::vector<std::string> &own_fields,
                             ClassId super)
{
    ClassInfo info;
    info.name = name;
    info.superId = super;
    info.fields = own_fields;
    return prog.addClass(std::move(info));
}

int
ProgramBuilder::fieldIndex(ClassId cls, const std::string &name) const
{
    const ClassInfo &info = prog.cls(cls);
    for (size_t i = 0; i < info.fields.size(); ++i) {
        if (info.fields[i] == name)
            return static_cast<int>(i);
    }
    AREGION_PANIC("class ", info.name, " has no field ", name);
}

int
ProgramBuilder::virtualSlot(const std::string &name)
{
    auto [it, inserted] = slots.emplace(
        name, static_cast<int>(slots.size()));
    (void)inserted;
    AREGION_ASSERT(it->second < Program::maxVtableSlots,
                   "virtual slot budget exceeded");
    return it->second;
}

MethodId
ProgramBuilder::declareMethod(const std::string &name, int num_args,
                              bool is_synchronized)
{
    MethodInfo info;
    info.name = name;
    info.numArgs = num_args;
    info.numRegs = num_args;
    info.isSynchronized = is_synchronized;
    if (is_synchronized) {
        AREGION_ASSERT(num_args >= 1,
                       "synchronized method needs a receiver");
    }
    const MethodId id = prog.addMethod(std::move(info));
    defined.push_back(false);
    return id;
}

MethodId
ProgramBuilder::declareVirtual(ClassId cls, const std::string &slot_name,
                               int num_args, bool is_synchronized)
{
    const MethodId id = declareMethod(
        prog.cls(cls).name + "." + slot_name, num_args, is_synchronized);
    bindVirtual(cls, slot_name, id);
    return id;
}

void
ProgramBuilder::bindVirtual(ClassId cls, const std::string &slot_name,
                            MethodId method)
{
    const int slot = virtualSlot(slot_name);
    auto &info = prog.classMutable(cls);
    if (static_cast<int>(info.vtable.size()) <= slot)
        info.vtable.resize(static_cast<size_t>(slot) + 1, NO_METHOD);
    info.vtable[static_cast<size_t>(slot)] = method;
    auto &minfo = prog.methodMutable(method);
    minfo.classId = cls;
}

MethodBuilder
ProgramBuilder::define(MethodId method)
{
    AREGION_ASSERT(!defined[static_cast<size_t>(method)],
                   "method ", method, " defined twice");
    return MethodBuilder(*this, method);
}

void
ProgramBuilder::setMain(MethodId method)
{
    prog.mainMethod = method;
}

Program
ProgramBuilder::build()
{
    for (size_t m = 0; m < defined.size(); ++m) {
        AREGION_ASSERT(defined[m], "method ", prog.method(
            static_cast<MethodId>(m)).name, " was never defined");
    }
    AREGION_ASSERT(prog.mainMethod != NO_METHOD, "no main method set");
    return std::move(prog);
}

} // namespace aregion::vm

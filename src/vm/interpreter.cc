#include "vm/interpreter.hh"

#include "support/logging.hh"
#include "support/output.hh"
#include "vm/arith.hh"

namespace aregion::vm {

namespace {

int64_t
javaDiv(int64_t a, int64_t b, MethodId m, int pc)
{
    if (b == 0)
        throw Trap(TrapKind::DivideByZero, m, pc);
    return arith::javaDiv(a, b);
}

int64_t
javaRem(int64_t a, int64_t b, MethodId m, int pc)
{
    if (b == 0)
        throw Trap(TrapKind::DivideByZero, m, pc);
    return arith::javaRem(a, b);
}

using arith::javaShl;
using arith::javaShr;
using arith::javaAdd;
using arith::javaSub;
using arith::javaMul;

} // namespace

Interpreter::Interpreter(const Program &prog_, Profile *profile_,
                         uint64_t max_words, int max_threads)
    : prog(prog_), profile(profile_),
      heapImpl(prog_, max_words, max_threads)
{
}

int64_t &
Interpreter::reg(Frame &frame, Reg r)
{
    AREGION_ASSERT(r < frame.regs.size(), "register ", r,
                   " out of range in method ", frame.method);
    return frame.regs[r];
}

uint64_t
Interpreter::checkRef(int64_t value, MethodId m, int pc) const
{
    if (value == static_cast<int64_t>(layout::NULL_REF))
        throw Trap(TrapKind::NullPointer, m, pc);
    const auto addr = static_cast<uint64_t>(value);
    AREGION_ASSERT(heapImpl.inBounds(addr),
                   "corrupt reference ", value, " in method ", m,
                   " pc ", pc);
    return addr;
}

bool
Interpreter::monitorTryEnter(ThreadCtx &thread, uint64_t obj)
{
    const int64_t word = heapImpl.load(obj + layout::HDR_LOCK);
    const int owner = layout::lockOwner(word);
    if (owner == -1) {
        heapImpl.store(obj + layout::HDR_LOCK, layout::lockWord(
            thread.id, 1));
        return true;
    }
    if (owner == thread.id) {
        heapImpl.store(obj + layout::HDR_LOCK, layout::lockWord(
            thread.id, layout::lockDepth(word) + 1));
        return true;
    }
    return false;
}

void
Interpreter::monitorExit(ThreadCtx &thread, uint64_t obj, int pc)
{
    const int64_t word = heapImpl.load(obj + layout::HDR_LOCK);
    AREGION_ASSERT(layout::lockOwner(word) == thread.id,
                   "monitorexit by non-owner at pc ", pc);
    const int64_t depth = layout::lockDepth(word) - 1;
    heapImpl.store(obj + layout::HDR_LOCK,
                   depth == 0 ? 0 : layout::lockWord(thread.id, depth));
}

void
Interpreter::invoke(ThreadCtx &thread, MethodId callee,
                    const std::vector<int64_t> &argv, Reg ret_dst)
{
    const MethodInfo &info = prog.method(callee);
    AREGION_ASSERT(static_cast<int>(argv.size()) == info.numArgs,
                   "arity mismatch calling ", info.name);
    Frame frame;
    frame.method = callee;
    frame.regs.assign(static_cast<size_t>(info.numRegs), 0);
    for (size_t i = 0; i < argv.size(); ++i)
        frame.regs[i] = argv[i];
    frame.retDst = ret_dst;
    if (info.isSynchronized) {
        // Caller checked availability before committing to the call.
        const auto receiver = checkRef(argv.at(0), callee, 0);
        const bool ok = monitorTryEnter(thread, receiver);
        AREGION_ASSERT(ok, "synchronized invoke raced");
        frame.syncReceiver = receiver;
    }
    thread.stack.push_back(std::move(frame));
    if (profile)
        profile->forMethod(callee).invocations++;
}

void
Interpreter::doReturn(ThreadCtx &thread, std::optional<int64_t> value)
{
    Frame done = std::move(thread.stack.back());
    thread.stack.pop_back();
    if (done.syncReceiver != layout::NULL_REF)
        monitorExit(thread, done.syncReceiver, -1);
    if (thread.stack.empty()) {
        thread.finished = true;
        return;
    }
    if (done.retDst != NO_REG) {
        AREGION_ASSERT(value.has_value(),
                       "void return into a destination register");
        reg(thread.stack.back(), done.retDst) = *value;
    }
}

void
Interpreter::step(ThreadCtx &thread)
{
    Frame &frame = thread.stack.back();
    const MethodInfo &info = prog.method(frame.method);
    AREGION_ASSERT(frame.pc < info.code.size(),
                   "pc fell off method ", info.name);
    const BcInstr &in = info.code[frame.pc];
    const auto m = frame.method;
    const auto pc = static_cast<int>(frame.pc);

    // Monitor acquisition may block without consuming the instruction;
    // handle those opcodes before any profiling side effects.
    if (in.op == Bc::MonitorEnter) {
        const auto obj = checkRef(reg(frame, in.a), m, pc);
        if (!monitorTryEnter(thread, obj)) {
            thread.blockedOn = obj;
            return;
        }
        thread.blockedOn = layout::NULL_REF;
        if (profile)
            profile->forMethod(m).execCount[frame.pc]++;
        ++executed;
        ++frame.pc;
        return;
    }
    if (in.op == Bc::CallStatic || in.op == Bc::CallVirtual) {
        // Resolve callee first so a synchronized callee whose monitor
        // is unavailable blocks the caller at the call site.
        std::vector<int64_t> argv;
        argv.reserve(in.args.size());
        for (Reg r : in.args)
            argv.push_back(reg(frame, r));

        MethodId callee;
        if (in.op == Bc::CallStatic) {
            callee = static_cast<MethodId>(in.imm);
        } else {
            const auto recv = checkRef(argv.at(0), m, pc);
            const auto cls = static_cast<ClassId>(
                heapImpl.load(recv + layout::HDR_CLASS));
            AREGION_ASSERT(cls != layout::ARRAY_CLASS,
                           "virtual call on array");
            callee = prog.resolveVirtual(cls, in.b);
            if (profile) {
                auto &site = profile->forMethod(m).callSites[pc];
                site.receivers[cls]++;
                site.total++;
            }
        }
        const MethodInfo &ci = prog.method(callee);
        if (ci.isSynchronized) {
            const auto recv = checkRef(argv.at(0), callee, 0);
            const int64_t word = heapImpl.load(recv + layout::HDR_LOCK);
            const int owner = layout::lockOwner(word);
            if (owner != -1 && owner != thread.id) {
                thread.blockedOn = recv;
                return;
            }
        }
        thread.blockedOn = layout::NULL_REF;
        if (profile)
            profile->forMethod(m).execCount[frame.pc]++;
        ++executed;
        ++frame.pc;
        invoke(thread, callee, argv, in.a);
        return;
    }

    if (profile)
        profile->forMethod(m).execCount[frame.pc]++;
    ++executed;

    switch (in.op) {
      case Bc::Const:
        reg(frame, in.a) = in.imm;
        break;
      case Bc::Mov:
        reg(frame, in.a) = reg(frame, in.b);
        break;
      case Bc::Add:
        reg(frame, in.a) = javaAdd(reg(frame, in.b), reg(frame, in.c));
        break;
      case Bc::Sub:
        reg(frame, in.a) = javaSub(reg(frame, in.b), reg(frame, in.c));
        break;
      case Bc::Mul:
        reg(frame, in.a) = javaMul(reg(frame, in.b), reg(frame, in.c));
        break;
      case Bc::Div:
        reg(frame, in.a) =
            javaDiv(reg(frame, in.b), reg(frame, in.c), m, pc);
        break;
      case Bc::Rem:
        reg(frame, in.a) =
            javaRem(reg(frame, in.b), reg(frame, in.c), m, pc);
        break;
      case Bc::And:
        reg(frame, in.a) = reg(frame, in.b) & reg(frame, in.c);
        break;
      case Bc::Or:
        reg(frame, in.a) = reg(frame, in.b) | reg(frame, in.c);
        break;
      case Bc::Xor:
        reg(frame, in.a) = reg(frame, in.b) ^ reg(frame, in.c);
        break;
      case Bc::Shl:
        reg(frame, in.a) = javaShl(reg(frame, in.b), reg(frame, in.c));
        break;
      case Bc::Shr:
        reg(frame, in.a) = javaShr(reg(frame, in.b), reg(frame, in.c));
        break;
      case Bc::CmpEq:
        reg(frame, in.a) = reg(frame, in.b) == reg(frame, in.c);
        break;
      case Bc::CmpNe:
        reg(frame, in.a) = reg(frame, in.b) != reg(frame, in.c);
        break;
      case Bc::CmpLt:
        reg(frame, in.a) = reg(frame, in.b) < reg(frame, in.c);
        break;
      case Bc::CmpLe:
        reg(frame, in.a) = reg(frame, in.b) <= reg(frame, in.c);
        break;
      case Bc::CmpGt:
        reg(frame, in.a) = reg(frame, in.b) > reg(frame, in.c);
        break;
      case Bc::CmpGe:
        reg(frame, in.a) = reg(frame, in.b) >= reg(frame, in.c);
        break;

      case Bc::Branch: {
        const bool taken = reg(frame, in.a) != 0;
        if (profile && taken)
            profile->forMethod(m).branchTaken[pc]++;
        if (taken) {
            frame.pc = static_cast<size_t>(in.imm);
            return;
        }
        break;
      }
      case Bc::Jump:
        frame.pc = static_cast<size_t>(in.imm);
        return;

      case Bc::NewObject:
        reg(frame, in.a) = static_cast<int64_t>(
            heapImpl.allocObject(static_cast<ClassId>(in.c)));
        break;
      case Bc::NewArray: {
        const int64_t len = reg(frame, in.b);
        if (len < 0)
            throw Trap(TrapKind::NegativeArraySize, m, pc);
        reg(frame, in.a) = static_cast<int64_t>(heapImpl.allocArray(len));
        break;
      }

      case Bc::GetField: {
        const auto obj = checkRef(reg(frame, in.b), m, pc);
        reg(frame, in.a) =
            heapImpl.load(obj + layout::OBJ_FIELD_BASE + in.c);
        break;
      }
      case Bc::PutField: {
        const auto obj = checkRef(reg(frame, in.a), m, pc);
        heapImpl.store(obj + layout::OBJ_FIELD_BASE + in.c,
                       reg(frame, in.b));
        break;
      }

      case Bc::ALoad: {
        const auto arr = checkRef(reg(frame, in.b), m, pc);
        const int64_t len = heapImpl.load(arr + layout::ARR_LEN);
        const int64_t idx = reg(frame, static_cast<Reg>(in.c));
        if (idx < 0 || idx >= len)
            throw Trap(TrapKind::ArrayBounds, m, pc);
        reg(frame, in.a) = heapImpl.load(
            arr + static_cast<uint64_t>(layout::ARR_ELEM_BASE + idx));
        break;
      }
      case Bc::AStore: {
        const auto arr = checkRef(reg(frame, in.a), m, pc);
        const int64_t len = heapImpl.load(arr + layout::ARR_LEN);
        const int64_t idx = reg(frame, in.b);
        if (idx < 0 || idx >= len)
            throw Trap(TrapKind::ArrayBounds, m, pc);
        heapImpl.store(
            arr + static_cast<uint64_t>(layout::ARR_ELEM_BASE + idx),
            reg(frame, static_cast<Reg>(in.c)));
        break;
      }
      case Bc::ALength: {
        const auto arr = checkRef(reg(frame, in.b), m, pc);
        reg(frame, in.a) = heapImpl.load(arr + layout::ARR_LEN);
        break;
      }

      case Bc::Ret:
        doReturn(thread, reg(frame, in.a));
        return;
      case Bc::RetVoid:
        doReturn(thread, std::nullopt);
        return;

      case Bc::MonitorExit: {
        const auto obj = checkRef(reg(frame, in.a), m, pc);
        monitorExit(thread, obj, pc);
        break;
      }

      case Bc::InstanceOf: {
        const int64_t value = reg(frame, in.b);
        if (value == static_cast<int64_t>(layout::NULL_REF)) {
            reg(frame, in.a) = 0;
        } else {
            const auto obj = checkRef(value, m, pc);
            const auto cls = static_cast<ClassId>(
                heapImpl.load(obj + layout::HDR_CLASS));
            reg(frame, in.a) =
                cls != layout::ARRAY_CLASS &&
                prog.isSubclassOf(cls, static_cast<ClassId>(in.c));
        }
        break;
      }
      case Bc::CheckCast: {
        const int64_t value = reg(frame, in.a);
        if (value != static_cast<int64_t>(layout::NULL_REF)) {
            const auto obj = checkRef(value, m, pc);
            const auto cls = static_cast<ClassId>(
                heapImpl.load(obj + layout::HDR_CLASS));
            if (cls == layout::ARRAY_CLASS ||
                !prog.isSubclassOf(cls, static_cast<ClassId>(in.c))) {
                throw Trap(TrapKind::ClassCast, m, pc);
            }
        }
        break;
      }

      case Bc::Safepoint:
        // The interpreter polls implicitly via the scheduler quantum;
        // the flag load only matters for compiled code.
        (void)heapImpl.load(heapImpl.yieldFlagAddr(thread.id));
        break;
      case Bc::Print:
        outputStream.push_back(reg(frame, in.a));
        break;
      case Bc::Marker:
        markerLog.push_back({in.imm, executed, m});
        break;

      case Bc::Spawn: {
        AREGION_ASSERT(threads.size() <
                           static_cast<size_t>(heapImpl.maxThreads()),
                       "thread limit exceeded");
        const auto callee = static_cast<MethodId>(in.imm);
        AREGION_ASSERT(!prog.method(callee).isSynchronized,
                       "cannot spawn a synchronized method");
        std::vector<int64_t> argv;
        for (Reg r : in.args)
            argv.push_back(reg(frame, r));
        ThreadCtx fresh;
        fresh.id = static_cast<int>(threads.size());
        threads.push_back(std::move(fresh));
        invoke(threads.back(), callee, argv, NO_REG);
        break;
      }

      case Bc::MonitorEnter:
      case Bc::CallStatic:
      case Bc::CallVirtual:
        AREGION_PANIC("handled above");
    }

    ++thread.stack.back().pc;
}

InterpResult
Interpreter::run(uint64_t max_steps)
{
    InterpResult result;
    ThreadCtx main;
    main.id = 0;
    threads.clear();
    threads.push_back(std::move(main));
    AREGION_ASSERT(prog.mainMethod != NO_METHOD, "program has no main");
    AREGION_ASSERT(prog.method(prog.mainMethod).numArgs == 0,
                   "main must take no arguments");
    invoke(threads[0], prog.mainMethod, {}, NO_REG);

    try {
        while (!threads[0].finished && executed < max_steps) {
            bool progressed = false;
            // Index-based loop: Spawn may grow the thread vector.
            for (size_t t = 0; t < threads.size(); ++t) {
                const uint64_t before = executed;
                for (uint64_t q = 0; q < quantum; ++q) {
                    ThreadCtx &ctx = threads[t];
                    if (ctx.finished || threads[0].finished)
                        break;
                    step(ctx);
                    if (ctx.blockedOn != layout::NULL_REF)
                        break;
                }
                if (executed != before)
                    progressed = true;
            }
            if (!progressed && !threads[0].finished)
                throw Trap(TrapKind::Deadlock, prog.mainMethod, 0);
        }
    } catch (const Trap &trap) {
        result.trap = trap;
        result.instructions = executed;
        return result;
    }

    result.completed = threads[0].finished;
    result.instructions = executed;
    return result;
}

uint64_t
Interpreter::outputChecksum() const
{
    return aregion::outputChecksum(outputStream);
}

} // namespace aregion::vm

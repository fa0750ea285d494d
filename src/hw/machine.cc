#include "hw/machine.hh"

#include <algorithm>
#include <iterator>

#include "hw/bisim.hh"
#include "hw/oracle.hh"
#include "support/failpoint.hh"
#include "support/logging.hh"
#include "support/output.hh"
#include "support/telemetry.hh"
#include "support/telemetry_keys.hh"
#include "vm/arith.hh"
#include "vm/layout.hh"

namespace aregion::hw {

namespace layout = vm::layout;
using vm::Trap;
using vm::TrapKind;

// Adding an AbortCause must grow the per-region stats array and the
// machine.abort.* telemetry vector in lockstep; a mismatch here
// would silently truncate (or read past) the cause histogram.
static_assert(sizeof(RegionRuntime::abortsByCause) /
                      sizeof(uint64_t) ==
                  kNumAbortCauses,
              "RegionRuntime::abortsByCause must cover every "
              "AbortCause enumerator");
static_assert(std::size(telemetry::keys::kMachineAbortByCause) ==
                  kNumAbortCauses,
              "telemetry kMachineAbortByCause must cover every "
              "AbortCause enumerator");

namespace {

size_t
nextPow2(size_t n)
{
    size_t p = 1;
    while (p < n)
        p <<= 1;
    return p;
}

} // namespace

const char *
abortCauseName(AbortCause cause)
{
    switch (cause) {
      case AbortCause::Explicit: return "explicit";
      case AbortCause::Conflict: return "conflict";
      case AbortCause::Overflow: return "overflow";
      case AbortCause::Interrupt: return "interrupt";
      case AbortCause::Exception: return "exception";
      case AbortCause::Io: return "io";
    }
    return "<bad>";
}

uint64_t
MachineResult::outputChecksum() const
{
    return aregion::outputChecksum(output);
}

Machine::Machine(const MachineProgram &prog, const HwConfig &config_,
                 TraceSink *sink_, uint64_t max_words)
    : mp(prog), config(config_), sink(sink_),
      heapImpl(*prog.prog, max_words, config_.maxContexts)
{
    AREGION_ASSERT(config.maxContexts >= 1,
                   "bad context capacity ", config.maxContexts);
    AREGION_ASSERT(config.l1Assoc > 0 &&
                   config.l1Lines >= config.l1Assoc,
                   "bad L1 geometry");
    numSetsU = static_cast<uint64_t>(config.l1Lines / config.l1Assoc);
    setsArePow2 = (numSetsU & (numSetsU - 1)) == 0;
    setMask = numSetsU - 1;
    lineTableCap = nextPow2(
        2 * static_cast<size_t>(std::max(1, config.l1Lines)));
    // TraceUop carries global pcs (method << 16 | offset) in 32 bits.
    AREGION_ASSERT(prog.prog->numMethods() < (1 << 16),
                   "method ids overflow the 32-bit trace pc");
    batch.reserve(BATCH_CAP);
}

void
Machine::initCtx(Ctx &ctx)
{
    ctx.spec.storeBuf.init(256);
    ctx.spec.readLines.init(lineTableCap);
    ctx.spec.writeLines.init(lineTableCap);
    ctx.spec.setOccupancy.init(static_cast<size_t>(numSetsU));
    ctx.argScratch.reserve(8);
}

void
Machine::flushTrace()
{
    if (batch.empty())
        return;
    sink->uopBatch(batch.data(), batch.size());
    ++batchFlushes;
    batchUops += batch.size();
    batch.clear();
}

void
Machine::trackSpecLine(Ctx &ctx, uint64_t line)
{
    Spec &spec = ctx.spec;
    if (spec.readLines.contains(line) ||
        spec.writeLines.contains(line)) {
        return;
    }
    const int occupancy = spec.setOccupancy.increment(setOf(line));
    const auto total = spec.readLines.size() + spec.writeLines.size();
    // capLines is config.l1Lines except when the machine.capacity
    // failpoint squeezed this region at aregion_begin.
    if (occupancy > config.l1Assoc ||
        total + 1 > static_cast<size_t>(spec.capLines)) {
        throw RegionAbort{AbortCause::Overflow, -1};
    }
}

void
Machine::signalConflicts(Ctx &writer_ctx, uint64_t line)
{
    if (ctxs.size() < 2)
        return;
    for (Ctx &other : ctxs) {
        if (other.id == writer_ctx.id || !other.spec.active ||
            other.pendingAbort) {
            continue;
        }
        if (other.spec.readLines.contains(line) ||
            other.spec.writeLines.contains(line)) {
            other.pendingAbort = AbortCause::Conflict;
        }
    }
}

int64_t
Machine::memRead(Ctx &ctx, uint64_t addr)
{
    if (ctx.spec.active) {
        const uint64_t line = lineOf(addr);
        trackSpecLine(ctx, line);
        ctx.spec.readLines.insert(line);
        if (const int64_t *buffered = ctx.spec.storeBuf.lookup(addr))
            return *buffered;
        // Speculative wild loads (a postdominating check may not
        // have run yet) read as zero.
        const int64_t value =
            heapImpl.inBounds(addr) ? heapImpl.load(addr) : 0;
        if (oracle)
            oracle->onSpecRead(ctx.id, addr, value);
        return value;
    }
    return heapImpl.load(addr);
}

void
Machine::memWrite(Ctx &ctx, uint64_t addr, int64_t value)
{
    const uint64_t line = lineOf(addr);
    if (ctx.spec.active) {
        trackSpecLine(ctx, line);
        ctx.spec.writeLines.insert(line);
        ctx.spec.storeBuf.put(addr, value);
        signalConflicts(ctx, line);
        return;
    }
    heapImpl.store(addr, value);
    if (oracle)
        oracle->onNonSpecStore(addr, value);
    signalConflicts(ctx, line);
}

uint64_t
Machine::checkRef(Ctx &ctx, int64_t value, const MUop &uop)
{
    if (value == 0)
        raiseTrap(ctx, TrapKind::NullPointer, uop);
    return static_cast<uint64_t>(value);
}

void
Machine::raiseTrap(Ctx &ctx, TrapKind kind, const MUop &uop)
{
    if (ctx.spec.active) {
        // Precise exceptions: abort first, re-raise non-speculatively.
        throw RegionAbort{AbortCause::Exception, -1};
    }
    throw Trap(kind, uop.bcMethod, uop.bcPc);
}

void
Machine::doAbort(Ctx &ctx, AbortCause cause, int abort_id,
                 uint64_t resolve_pc)
{
    AREGION_ASSERT(ctx.spec.active, "abort without region");
    Spec &spec = ctx.spec;

    RegionRuntime &stats = *spec.stats;
    stats.abortsByCause[static_cast<int>(cause)]++;
    if (cause == AbortCause::Explicit && abort_id >= 0)
        stats.abortsByAssert[abort_id]++;

    Frame &frame = ctx.top();
    frame.regs = spec.regsSnapshot;
    frame.lastWriter = spec.writersSnapshot;
    frame.pc = spec.altPc;

    // Planted rollback bug (oracle.inject.divergence failpoint): one
    // restored register is corrupted after the checkpoint copy, as a
    // buggy restore path would (payload = delta). The bisimulation
    // oracle must flag it — that is the negative self-test.
    if (injectOn && fpDivergence && fpDivergence.fire() &&
        !frame.regs.empty()) {
        result.injectedDivergences++;
        const int64_t delta = fpDivergence.value();
        frame.regs.back() += delta != 0 ? delta : 1;
    }

    result.regionAborts++;
    if (ctx.id == 0) {
        result.discardedUops += spec.uops;
        if (sink) {
            flushTrace();
            sink->abortFlush({cause, spec.uops, resolve_pc});
        }
    }
    spec.active = false;
    // Any injected commit stall belonged to the region that just
    // died; a ContentionControl backoff may replace it below.
    ctx.stallSteps = 0;
    ctx.commitStalled = false;

    if (oracle) {
        oracle->checkAbort(ctx.id, ctxs.size(), frame.regs, frame.pc,
                           heapImpl, cause);
    }
    // Bisimulation check (hw/bisim.hh): the spec fields survive the
    // active=false reset above, so the checkpoint is still intact.
    // Contexts interleave on one host thread, so the heap here is the
    // consistent post-abort snapshot even for cross-context aborts.
    if (bisim) {
        bisim->checkAbort(ctx.id, spec.method, spec.regsSnapshot,
                          spec.altPc, frame.regs, frame.pc, heapImpl,
                          cause);
    }
    if (contention) {
        ctx.stallSteps = contention->onAbort(ctx.id, cause);
        result.backoffSteps += ctx.stallSteps;
    }
}

void
Machine::commitRegion(Ctx &ctx)
{
    Spec &spec = ctx.spec;
    // Serializability check runs against the pre-drain heap: the
    // region's reads must match the committed state it merges into.
    if (oracle)
        oracle->checkCommit(ctx.id, ctxs.size(), heapImpl);
    for (uint32_t idx : spec.storeBuf.live) {
        const StoreBuffer::Slot &slot = spec.storeBuf.slots[idx];
        AREGION_ASSERT(heapImpl.inBounds(slot.addr),
                       "commit of wild speculative store at ",
                       slot.addr);
        heapImpl.store(slot.addr, slot.value);
        if (oracle)
            oracle->onCommitStore(slot.addr, slot.value);
    }
    // Commit makes the region's writes visible: regions that started
    // after our buffered stores and read those lines must conflict.
    for (uint64_t line : spec.writeLines.items)
        signalConflicts(ctx, line);

    RegionRuntime &stats = *spec.stats;
    stats.commits++;
    stats.dynamicSize.add(static_cast<int64_t>(spec.uops));
    stats.footprintLines.add(static_cast<int64_t>(
        spec.readLines.size() + spec.writeLines.size()));
    // Read/write-set occupancy at commit (Section 6.2 footprint
    // split); kept per-run and merged into the registry once at
    // publishTelemetry.
    readLinesLocal.add(static_cast<int64_t>(spec.readLines.size()));
    writeLinesLocal.add(static_cast<int64_t>(spec.writeLines.size()));
    result.regionCommits++;
    if (ctx.id == 0)
        result.regionUopsRetired += spec.uops;
    spec.active = false;

    ctx.commitStalled = false;

    if (oracle)
        oracle->onCommit(ctx.id);
    if (contention)
        contention->onCommit(ctx.id);
}

void
Machine::invoke(Ctx &ctx, vm::MethodId callee, const int64_t *argv,
                size_t argc, MReg ret_dst, uint64_t call_seq)
{
    const MachineFunction &fn = mp.func(callee);
    AREGION_ASSERT(static_cast<int>(argc) == fn.numArgs,
                   "machine call arity mismatch into ", fn.name);
    if (ctx.depth == ctx.stack.size())
        ctx.stack.emplace_back();
    Frame &frame = ctx.stack[ctx.depth++];
    frame.fn = &fn;
    frame.pc = 0;
    frame.retDst = ret_dst;
    frame.regs.assign(static_cast<size_t>(fn.numRegs), 0);
    for (size_t i = 0; i < argc; ++i)
        frame.regs[i] = argv[i];
    if (ctx.id == 0 && sink) {
        frame.lastWriter.assign(static_cast<size_t>(fn.numRegs), 0);
        for (size_t i = 0; i < argc; ++i)
            frame.lastWriter[i] = call_seq;
    }
}

void
Machine::execute(Ctx &ctx, const MUop &uop, uint64_t pc)
{
    namespace arith = vm::arith;
    Frame &frame = ctx.top();
    const bool tracing = ctx.id == 0 && sink != nullptr;

    auto reg = [&](MReg r) -> int64_t & {
        AREGION_ASSERT(r >= 0 &&
                       static_cast<size_t>(r) < frame.regs.size(),
                       "machine register out of range");
        return frame.regs[static_cast<size_t>(r)];
    };

    // Sequence numbers and register dependences exist only for the
    // sink-visible trace, so none of that bookkeeping runs unless
    // context 0 is actually being traced.
    TraceUop t;
    if (tracing) {
        t.seq = ++tracedSeq;
        t.pc = pc;
        t.numSrcs = static_cast<int>(
            std::min<size_t>(uop.srcs.size(), 3));
        for (int i = 0; i < t.numSrcs; ++i) {
            t.srcSeq[i] = frame.lastWriter[
                static_cast<size_t>(uop.srcs[static_cast<size_t>(i)])];
        }
    }
    auto writeDst = [&](MReg dst, int64_t value) {
        reg(dst) = value;
        if (tracing)
            frame.lastWriter[static_cast<size_t>(dst)] = t.seq;
    };

    int next_pc = frame.pc + 1;

    switch (uop.kind) {
      case MKind::Imm:
        writeDst(uop.dst, uop.imm);
        break;
      case MKind::Mov:
        writeDst(uop.dst, reg(uop.srcs[0]));
        break;
      case MKind::Alu: {
        const int64_t a = reg(uop.srcs[0]);
        const int64_t b = reg(uop.srcs[1]);
        int64_t out = 0;
        switch (uop.alu) {
          case AluOp::Add: out = arith::javaAdd(a, b); break;
          case AluOp::Sub: out = arith::javaSub(a, b); break;
          case AluOp::Mul:
            out = arith::javaMul(a, b);
            t.lat = LatClass::Mul;
            break;
          case AluOp::Div:
            if (b == 0)
                raiseTrap(ctx, TrapKind::DivideByZero, uop);
            out = arith::javaDiv(a, b);
            t.lat = LatClass::Div;
            break;
          case AluOp::Rem:
            if (b == 0)
                raiseTrap(ctx, TrapKind::DivideByZero, uop);
            out = arith::javaRem(a, b);
            t.lat = LatClass::Div;
            break;
          case AluOp::And: out = a & b; break;
          case AluOp::Or: out = a | b; break;
          case AluOp::Xor: out = a ^ b; break;
          case AluOp::Shl: out = arith::javaShl(a, b); break;
          case AluOp::Shr: out = arith::javaShr(a, b); break;
          case AluOp::CmpEq: out = a == b; break;
          case AluOp::CmpNe: out = a != b; break;
          case AluOp::CmpLt: out = a < b; break;
          case AluOp::CmpLe: out = a <= b; break;
          case AluOp::CmpGt: out = a > b; break;
          case AluOp::CmpGe: out = a >= b; break;
          case AluOp::CmpULt:
            out = static_cast<uint64_t>(a) < static_cast<uint64_t>(b);
            break;
        }
        writeDst(uop.dst, out);
        break;
      }

      case MKind::Load: {
        const auto base = checkRef(ctx, reg(uop.srcs[0]), uop);
        uint64_t addr = base + static_cast<uint64_t>(uop.imm);
        if (uop.srcs.size() > 1)
            addr += static_cast<uint64_t>(reg(uop.srcs[1]));
        t.isLoad = true;
        t.lat = LatClass::Load;
        t.memAddr = addr;
        writeDst(uop.dst, memRead(ctx, addr));
        break;
      }
      case MKind::Store: {
        const auto base = checkRef(ctx, reg(uop.srcs[0]), uop);
        uint64_t addr = base + static_cast<uint64_t>(uop.imm);
        if (uop.srcs.size() > 2)
            addr += static_cast<uint64_t>(reg(uop.srcs[1]));
        const int64_t value = reg(uop.srcs.back());
        t.isStore = true;
        t.lat = LatClass::Store;
        t.memAddr = addr;
        AREGION_ASSERT(heapImpl.inBounds(addr) || ctx.spec.active,
                       "non-speculative wild store");
        memWrite(ctx, addr, value);
        break;
      }

      case MKind::Br: {
        const bool cond = reg(uop.srcs[0]) != 0;
        const bool take = uop.brIfZero ? !cond : cond;
        t.isBranch = true;
        t.lat = LatClass::Branch;
        t.taken = take;
        if (take) {
            next_pc = uop.target;
            t.targetPc = globalPc(frame.fn->methodId, uop.target);
        } else {
            t.targetPc = pc + 1;
        }
        break;
      }
      case MKind::Jmp:
        next_pc = uop.target;
        break;

      case MKind::CallDirect:
      case MKind::CallIndirect: {
        AREGION_ASSERT(!ctx.spec.active,
                       "call inside atomic region");
        vm::MethodId callee;
        std::vector<int64_t> &argv = ctx.argScratch;
        argv.clear();
        if (uop.kind == MKind::CallDirect) {
            callee = uop.aux;
            for (MReg r : uop.srcs)
                argv.push_back(reg(r));
        } else {
            callee = static_cast<vm::MethodId>(reg(uop.srcs[0]));
            AREGION_ASSERT(callee >= 0 &&
                           callee < mp.prog->numMethods(),
                           "indirect call to bad method id ", callee);
            t.indirect = true;
            t.targetPc = globalPc(callee, 0);
            for (size_t i = 1; i < uop.srcs.size(); ++i)
                argv.push_back(reg(uop.srcs[i]));
        }
        frame.pc = next_pc;     // return continuation
        if (tracing)
            pushTrace(t);
        invoke(ctx, callee, argv.data(), argv.size(), uop.dst,
               t.seq);
        return;
      }
      case MKind::Ret: {
        AREGION_ASSERT(!ctx.spec.active,
                       "return inside atomic region");
        std::optional<int64_t> value;
        if (!uop.srcs.empty())
            value = reg(uop.srcs[0]);
        const MReg ret_dst = frame.retDst;
        --ctx.depth;
        if (ctx.depth == 0) {
            ctx.finished = true;
        } else if (ret_dst != NO_MREG) {
            AREGION_ASSERT(value.has_value(),
                           "void return into destination");
            Frame &caller = ctx.top();
            caller.regs[static_cast<size_t>(ret_dst)] = *value;
            if (tracing) {
                caller.lastWriter[static_cast<size_t>(ret_dst)] =
                    t.seq;
            }
        }
        if (tracing)
            pushTrace(t);
        return;
      }

      case MKind::Cas: {
        const auto base = checkRef(ctx, reg(uop.srcs[0]), uop);
        const uint64_t addr = base + static_cast<uint64_t>(uop.imm);
        t.isLoad = true;
        t.isStore = true;
        t.serializing = true;
        t.lat = LatClass::Serial;
        t.memAddr = addr;
        const int64_t old = memRead(ctx, addr);
        if (old == 0) {
            memWrite(ctx, addr, reg(uop.srcs[1]));
            if (ctx.id == 0)
                result.monitorFastEnters++;
        }
        writeDst(uop.dst, old);
        break;
      }
      case MKind::TidWord:
        writeDst(uop.dst, layout::lockWord(ctx.id, 1));
        break;
      case MKind::LockSlow: {
        if (ctx.spec.active)
            throw RegionAbort{AbortCause::Exception, -1};
        const auto obj = checkRef(ctx, reg(uop.srcs[0]), uop);
        const uint64_t lock_addr = obj + layout::HDR_LOCK;
        const int64_t word = heapImpl.load(lock_addr);
        const int owner = layout::lockOwner(word);
        t.serializing = true;
        t.lat = LatClass::Serial;
        if (owner == -1) {
            memWrite(ctx, lock_addr, layout::lockWord(ctx.id, 1));
        } else if (owner == ctx.id) {
            memWrite(ctx, lock_addr, layout::lockWord(
                ctx.id, layout::lockDepth(word) + 1));
        } else {
            // Stay blocked at this uop; the scheduler retries.
            ctx.blockedOn = obj;
            return;
        }
        ctx.blockedOn = 0;
        break;
      }
      case MKind::UnlockSlow: {
        if (ctx.spec.active)
            throw RegionAbort{AbortCause::Exception, -1};
        const auto obj = checkRef(ctx, reg(uop.srcs[0]), uop);
        const uint64_t lock_addr = obj + layout::HDR_LOCK;
        const int64_t word = heapImpl.load(lock_addr);
        AREGION_ASSERT(layout::lockOwner(word) == ctx.id,
                       "unlock by non-owner");
        const int64_t depth = layout::lockDepth(word) - 1;
        t.serializing = true;
        t.lat = LatClass::Serial;
        memWrite(ctx, lock_addr,
                 depth == 0 ? 0 : layout::lockWord(ctx.id, depth));
        break;
      }

      case MKind::Alloc: {
        uint64_t addr;
        if (uop.imm == 0) {
            const int fields = heapImpl.fieldCount(uop.aux);
            addr = heapImpl.allocRaw(static_cast<uint64_t>(
                layout::OBJ_FIELD_BASE + fields));
            memWrite(ctx, addr + layout::HDR_CLASS, uop.aux);
        } else {
            const int64_t len = reg(uop.srcs[0]);
            if (len < 0)
                raiseTrap(ctx, TrapKind::NegativeArraySize, uop);
            addr = heapImpl.allocRaw(static_cast<uint64_t>(
                layout::ARR_ELEM_BASE + len));
            memWrite(ctx, addr + layout::HDR_CLASS,
                     layout::ARRAY_CLASS);
            memWrite(ctx, addr + layout::ARR_LEN, len);
        }
        t.isStore = true;
        t.lat = LatClass::Store;
        t.memAddr = addr;
        writeDst(uop.dst, static_cast<int64_t>(addr));
        break;
      }

      case MKind::YieldLoad: {
        const uint64_t addr = heapImpl.yieldFlagAddr(ctx.id);
        t.isLoad = true;
        t.lat = LatClass::Load;
        t.memAddr = addr;
        writeDst(uop.dst, memRead(ctx, addr));
        break;
      }

      case MKind::Print:
        if (ctx.spec.active)
            throw RegionAbort{AbortCause::Io, -1};
        result.output.push_back(reg(uop.srcs[0]));
        break;
      case MKind::Marker:
        if (ctx.spec.active)
            throw RegionAbort{AbortCause::Io, -1};
        if (ctx.id == 0) {
            result.markers.push_back(
                {uop.imm,
                 result.executedUops - result.discardedUops});
            if (sink) {
                flushTrace();
                sink->marker(uop.imm);
            }
        }
        break;
      case MKind::Spawn: {
        if (ctx.spec.active)
            throw RegionAbort{AbortCause::Io, -1};
        AREGION_ASSERT(ctxs.size() <
                           static_cast<size_t>(config.maxContexts),
                       "context limit exceeded");
        std::vector<int64_t> &argv = ctx.argScratch;
        argv.clear();
        for (MReg r : uop.srcs)
            argv.push_back(reg(r));
        // ctxs is reserved to maxContexts up front, so this never
        // reallocates under the live `ctx`/`frame` references.
        ctxs.emplace_back();
        Ctx &fresh = ctxs.back();
        fresh.id = static_cast<int>(ctxs.size()) - 1;
        initCtx(fresh);
        invoke(fresh, uop.aux, argv.data(), argv.size(), NO_MREG, 0);
        break;
      }

      case MKind::Trap:
        raiseTrap(ctx, static_cast<TrapKind>(uop.aux), uop);
        break;

      case MKind::ABegin: {
        AREGION_ASSERT(!ctx.spec.active, "nested atomic region");
        Spec &spec = ctx.spec;
        spec.active = true;
        spec.regionId = uop.aux;
        spec.method = frame.fn->methodId;
        spec.altPc = uop.target;
        spec.beginPc = pc;
        spec.uops = 0;
        spec.capLines = config.l1Lines;
        spec.regsSnapshot = frame.regs;
        spec.writersSnapshot = frame.lastWriter;
        spec.storeBuf.beginEpoch();
        spec.readLines.beginEpoch();
        spec.writeLines.beginEpoch();
        spec.setOccupancy.beginEpoch();
        spec.stats = &result.regions[{spec.method, spec.regionId}];
        spec.stats->entries++;
        result.regionEntries++;
        t.region = RegionEvent::Begin;
        t.regionId = uop.aux;
        if (oracle) {
            oracle->captureBegin(ctx.id, ctxs.size(), frame.regs,
                                 uop.target, heapImpl);
        }
        if (injectOn) {
            // Artificial capacity pressure: shrink this region's
            // effective line budget (payload = lines; default one
            // way's worth, which overflows almost immediately).
            if (fpCapacity && fpCapacity.fire()) {
                result.injectedCapacity++;
                const int64_t lines = fpCapacity.value();
                spec.capLines =
                    lines > 0 ? static_cast<int>(std::min<int64_t>(
                                    lines, config.l1Lines))
                              : config.l1Assoc;
            }
            // Forced assert failure: the region aborts explicitly
            // before its first instruction, as if a compiler assert
            // at the region head fired (payload = assert id).
            if (fpAssert && fpAssert.fire()) {
                result.injectedAsserts++;
                const int64_t id = fpAssert.value();
                throw RegionAbort{AbortCause::Explicit,
                                  id > 0 ? static_cast<int>(id) : -1};
            }
        }
        break;
      }
      case MKind::AEnd:
        AREGION_ASSERT(ctx.spec.active,
                       "aregion_end without begin");
        if (injectOn) {
            // Injected commit latency: hold the region open for a
            // stall (payload = steps; default one quantum) before
            // re-executing this AEnd, so other contexts commit or
            // conflict into the window. One draw per region.
            if (fpCommitStall && !ctx.commitStalled) {
                ctx.commitStalled = true;
                if (fpCommitStall.fire()) {
                    result.injectedCommitStalls++;
                    const int64_t steps = fpCommitStall.value();
                    ctx.stallSteps =
                        steps > 0 ? static_cast<uint64_t>(steps)
                                  : config.quantum;
                    return;     // pc unchanged; AEnd retries
                }
            }
            // Forced conflict: the commit point loses an ownership
            // race that real contention would have produced.
            if (fpConflict && fpConflict.fire()) {
                result.injectedConflicts++;
                throw RegionAbort{AbortCause::Conflict, -1};
            }
        }
        t.region = RegionEvent::End;
        t.regionId = uop.aux;
        frame.pc = next_pc;
        if (tracing)
            pushTrace(t);
        commitRegion(ctx);
        return;
      case MKind::AAbort:
        throw RegionAbort{AbortCause::Explicit, uop.aux};

      case MKind::Nop:
        break;
    }

    frame.pc = next_pc;
    if (tracing)
        pushTrace(t);
}

void
Machine::step(Ctx &ctx)
{
    // Asynchronous conflict aborts land between instructions — and
    // take priority over stalls, so a conflict arriving while a
    // commit is artificially held open kills the region.
    if (ctx.pendingAbort) {
        const AbortCause cause = *ctx.pendingAbort;
        ctx.pendingAbort.reset();
        if (ctx.spec.active) {
            doAbort(ctx, cause, -1,
                    globalPc(ctx.top().fn->methodId, ctx.top().pc));
            return;
        }
    }

    // Stalled (injected commit latency or contention backoff): burn
    // the step. It counts as machine progress so the deadlock
    // detector and the uop budget both see the stall, but it does
    // not tick the interrupt clock or the executed-uop counters.
    if (ctx.stallSteps > 0) {
        --ctx.stallSteps;
        ++machineUops;
        result.allContextUops++;
        return;
    }

    Frame &frame = ctx.top();
    const auto &code = frame.fn->code;
    AREGION_ASSERT(frame.pc >= 0 &&
                   static_cast<size_t>(frame.pc) < code.size(),
                   "machine pc fell off ", frame.fn->name);
    const MUop &uop = code[static_cast<size_t>(frame.pc)];

    // Blocked on a monitor: retry only when it may be free.
    if (ctx.blockedOn != 0) {
        const int64_t word =
            heapImpl.load(ctx.blockedOn + layout::HDR_LOCK);
        const int owner = layout::lockOwner(word);
        if (owner != -1 && owner != ctx.id)
            return;             // still held elsewhere
        ctx.blockedOn = 0;
    }

    const uint64_t pc = globalPc(frame.fn->methodId, frame.pc);
    ++machineUops;
    --interruptCountdown;
    result.allContextUops++;
    if (ctx.id == 0)
        result.executedUops++;
    if (ctx.spec.active)
        ctx.spec.uops++;

    try {
        execute(ctx, uop, pc);
    } catch (const RegionAbort &abort) {
        AREGION_ASSERT(ctx.spec.active,
                       "region abort outside region");
        // An interrupt slot coinciding with an abort is absorbed by
        // the abort (the region is already gone).
        if (interruptCountdown == 0)
            interruptCountdown = config.interruptPeriod;
        doAbort(ctx, abort.cause, abort.abortId, pc);
        return;
    }

    // Timer interrupt: aborts any in-flight region on this context.
    if (interruptCountdown == 0) {
        interruptCountdown = config.interruptPeriod;
        if (ctx.spec.active)
            doAbort(ctx, AbortCause::Interrupt, -1, pc);
    }

    // Injected spurious interrupt/context switch: one failpoint hit
    // per speculative uop, so `p` rates scale with region length.
    if (injectOn && fpInterrupt && ctx.spec.active &&
        fpInterrupt.fire()) {
        result.injectedInterrupts++;
        doAbort(ctx, AbortCause::Interrupt, -1, pc);
    }
}

void
Machine::publishTelemetry()
{
    namespace keys = telemetry::keys;
    auto &reg = telemetry::Registry::global();

    // Register every cause counter even when zero so each snapshot
    // carries the full cause vector.
    uint64_t total_aborts = 0;
    uint64_t by_cause[kNumAbortCauses] = {};
    for (const auto &[key, stats] : result.regions) {
        for (size_t c = 0; c < kNumAbortCauses; ++c)
            by_cause[c] += stats.abortsByCause[c];
    }
    for (size_t c = 0; c < kNumAbortCauses; ++c) {
        reg.add(keys::kMachineAbortByCause[c], by_cause[c]);
        total_aborts += by_cause[c];
    }
    reg.add(keys::kMachineAbortTotal, total_aborts);

    // Injection counters only exist when failpoints are armed, so
    // default runs register nothing new.
    if (injectOn) {
        reg.add(keys::kMachineInjectInterrupt,
                result.injectedInterrupts);
        reg.add(keys::kMachineInjectCapacity, result.injectedCapacity);
        reg.add(keys::kMachineInjectAssert, result.injectedAsserts);
        reg.add(keys::kMachineInjectConflict,
                result.injectedConflicts);
        reg.add(keys::kMachineInjectCommitStall,
                result.injectedCommitStalls);
        reg.add(keys::kMachineInjectTotal,
                result.injectedInterrupts + result.injectedCapacity +
                    result.injectedAsserts +
                    result.injectedConflicts +
                    result.injectedCommitStalls);
        // The negative-self-test hook registers its counter only when
        // its own failpoint is armed, so runs arming the classic
        // injectors see an unchanged key set.
        if (fpDivergence) {
            reg.add(keys::kOracleInjectDivergence,
                    result.injectedDivergences);
        }
    }
    // Bisimulation oracle counters exist only when the oracle is
    // attached (attach-only, like the RollbackOracle), keeping
    // default runs' telemetry byte-identical.
    if (bisim) {
        reg.add(keys::kOracleBisimChecks, bisim->checks());
        reg.add(keys::kOracleBisimReplays, bisim->replays());
        reg.add(keys::kOracleBisimUops, bisim->replayedUops());
        reg.add(keys::kOracleBisimDivergences,
                bisim->divergences().size() +
                    bisim->suppressedReports());
    }

    reg.add(keys::kMachineRegionEntries, result.regionEntries);
    reg.add(keys::kMachineRegionCommits, result.regionCommits);
    reg.add(keys::kMachineRegionUops, result.regionUopsRetired);
    reg.add(keys::kMachineUopsRetired, result.retiredUops);
    reg.add(keys::kMachineUopsExecuted, result.executedUops);
    reg.add(keys::kMachineUopsDiscarded, result.discardedUops);
    reg.add(keys::kMachineUopsAllContexts, result.allContextUops);
    reg.add(keys::kMachineMonitorFastEnters,
            result.monitorFastEnters);
    reg.add(keys::kMachineRuns, 1);
    reg.add(keys::kMachineBatchFlushes, batchFlushes);
    reg.add(keys::kMachineBatchUops, batchUops);

    // Histograms go through the registry's one locked write path;
    // everything above is an atomic add. Both are safe under the
    // parallel experiment driver.
    Histogram size_local;
    Histogram fp_local;
    for (const auto &[key, stats] : result.regions) {
        size_local.merge(stats.dynamicSize);
        fp_local.merge(stats.footprintLines);
    }
    reg.merge(keys::kMachineRegionSize, size_local);
    reg.merge(keys::kMachineRegionFootprint, fp_local);
    reg.merge(keys::kMachineRegionReadLines, readLinesLocal);
    reg.merge(keys::kMachineRegionWriteLines, writeLinesLocal);
}

bool
Machine::Injection::fire()
{
    return point->firesAt(++hits);
}

int64_t
Machine::Injection::value() const
{
    return point->value();
}

MachineResult
Machine::run(uint64_t max_uops)
{
    // Resolve failpoint handles once; with nothing armed the hooks
    // reduce to a single always-false branch on `injectOn`.
    auto &fps = failpoint::Registry::global();
    const bool armed = fps.anyArmed();
    const auto resolve = [&](const char *name) {
        return Injection{armed ? fps.find(name) : nullptr, 0};
    };
    fpInterrupt = resolve(failpoint::kMachineInterrupt);
    fpCapacity = resolve(failpoint::kMachineCapacity);
    fpAssert = resolve(failpoint::kMachineAssert);
    fpConflict = resolve(failpoint::kMachineConflict);
    fpCommitStall = resolve(failpoint::kMachineCommitStall);
    fpDivergence = resolve(failpoint::kOracleDivergence);
    injectOn = fpInterrupt || fpCapacity || fpAssert || fpConflict ||
               fpCommitStall || fpDivergence;

    result = MachineResult{};
    ctxs.clear();
    // Spawn pushes new contexts while references into `ctxs` are
    // live, so the vector must never reallocate mid-run.
    ctxs.reserve(static_cast<size_t>(config.maxContexts));
    machineUops = 0;
    tracedSeq = 0;
    interruptCountdown = config.interruptPeriod;
    batch.clear();
    batchFlushes = 0;
    batchUops = 0;
    readLinesLocal = Histogram{};
    writeLinesLocal = Histogram{};

    ctxs.emplace_back();
    ctxs[0].id = 0;
    initCtx(ctxs[0]);
    invoke(ctxs[0], mp.prog->mainMethod, nullptr, 0, NO_MREG, 0);

    if (oracle)
        oracle->onRunStart(heapImpl);

    try {
        while (!ctxs[0].finished && machineUops < max_uops) {
            bool progressed = false;
            for (size_t c = 0; c < ctxs.size(); ++c) {
                Ctx &ctx = ctxs[c];
                const uint64_t before = machineUops;
                for (uint64_t q = 0; q < config.quantum; ++q) {
                    if (ctx.finished || ctxs[0].finished)
                        break;
                    step(ctx);
                    if (ctx.blockedOn != 0)
                        break;
                }
                if (machineUops != before)
                    progressed = true;
            }
            if (!progressed && !ctxs[0].finished) {
                throw Trap(TrapKind::Deadlock, mp.prog->mainMethod,
                           0);
            }
        }
    } catch (const Trap &trap) {
        flushTrace();
        result.trap = trap;
        result.retiredUops =
            result.executedUops - result.discardedUops;
        publishTelemetry();
        return result;
    }

    flushTrace();
    result.completed = ctxs[0].finished;
    result.retiredUops = result.executedUops - result.discardedUops;
    publishTelemetry();
    return result;
}

} // namespace aregion::hw

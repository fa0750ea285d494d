#include "hw/bisim.hh"

#include <sstream>

#include "vm/arith.hh"
#include "vm/layout.hh"

namespace aregion::hw {

namespace layout = vm::layout;
using vm::Trap;
using vm::TrapKind;

namespace {

/** Uop budget per replay; the horizon at which the two replays are
 *  compared if nothing else stops them first. */
constexpr uint64_t kHorizonUops = 2048;

/** Divergences recorded before further reports are suppressed
 *  (counted, not stored): one planted bug otherwise floods the log
 *  with one report per subsequent abort. */
constexpr size_t kMaxReports = 8;

} // namespace

const char *
BisimOracle::stopName(Stop stop)
{
    switch (stop) {
      case Stop::Horizon: return "horizon";
      case Stop::FrameReturn: return "frame-return";
      case Stop::CallBoundary: return "call-boundary";
      case Stop::RegionEntry: return "region-entry";
      case Stop::RegionEnd: return "region-end";
      case Stop::ExplicitAbort: return "explicit-abort";
      case Stop::Trapped: return "trapped";
      case Stop::Blocked: return "blocked";
      case Stop::BadMonitor: return "bad-monitor";
      case Stop::Spawned: return "spawned";
      case Stop::WildStore: return "wild-store";
      case Stop::BadPc: return "bad-pc";
    }
    return "<bad>";
}

bool
BisimOracle::HeapView::inBounds(uint64_t addr) const
{
    // Fresh allocations (beyond the frozen watermark) are mapped too.
    return base.inBounds(addr) ||
           (addr >= base.allocMark() && addr < allocPtr);
}

int64_t
BisimOracle::HeapView::load(uint64_t addr) const
{
    auto it = writes.find(addr);
    if (it != writes.end())
        return it->second;
    // Words allocated by this replay but never written read as zero
    // (the machine's bump allocator hands out zeroed memory), even
    // where the base image still holds stale abandoned-region bytes.
    if (addr >= base.allocMark() && addr < allocPtr)
        return 0;
    return base.load(addr);
}

void
BisimOracle::HeapView::store(uint64_t addr, int64_t value)
{
    writes[addr] = value;
}

uint64_t
BisimOracle::HeapView::alloc(uint64_t words)
{
    const uint64_t addr = allocPtr;
    allocPtr += words;
    return addr;
}

void
BisimOracle::setReplayInfo(uint64_t seed, std::string command)
{
    replayValid = true;
    replaySeed = seed;
    replayCommand = std::move(command);
}

void
BisimOracle::report(int ctx_id, std::string what)
{
    if (found.size() >= kMaxReports) {
        ++suppressedCount;
        return;
    }
    if (replayValid) {
        std::ostringstream os;
        os << " [seed=" << replaySeed << " ctx=" << ctx_id
           << "; replay: " << replayCommand << "]";
        what += os.str();
    }
    found.push_back({ctx_id, std::move(what)});
}

BisimOracle::ReplayResult
BisimOracle::replay(int ctx_id, const MachineFunction &fn,
                    std::vector<int64_t> regs, int pc,
                    const vm::Heap &heap)
{
    namespace arith = vm::arith;

    ++replayCount;
    ReplayResult res;
    res.regs = std::move(regs);
    res.pc = pc;

    HeapView view(heap);

    auto reg = [&](MReg r) -> int64_t & {
        return res.regs[static_cast<size_t>(r)];
    };
    auto emit = [&](ObsEvent::Kind kind, uint64_t a, int64_t b) {
        res.events.push_back({kind, a, b});
    };
    auto doStore = [&](uint64_t addr, int64_t value) -> bool {
        if (!view.inBounds(addr))
            return false;
        view.store(addr, value);
        emit(ObsEvent::Kind::Store, addr, value);
        return true;
    };
    auto doLoad = [&](uint64_t addr) -> int64_t {
        if (!view.inBounds(addr)) {
            // The machine asserts on non-speculative wild loads;
            // the replay records the address as an observable and
            // reads zero so both legs keep comparable traces.
            emit(ObsEvent::Kind::WildLoad, addr, 0);
            return 0;
        }
        return view.load(addr);
    };
    auto finish = [&](Stop stop) -> ReplayResult & {
        res.stop = stop;
        res.allocPtr = view.allocPtr;
        replayedUopCount += res.uops;
        return res;
    };
    auto trapAt = [&](TrapKind kind, const MUop &uop) {
        res.trap.emplace(kind, uop.bcMethod, uop.bcPc);
    };

    while (true) {
        if (res.uops >= kHorizonUops)
            return finish(Stop::Horizon);
        if (res.pc < 0 ||
            res.pc >= static_cast<int>(fn.code.size())) {
            return finish(Stop::BadPc);
        }
        const MUop &uop = fn.code[static_cast<size_t>(res.pc)];

        // Register-file boundaries: the compiler never emits a uop
        // whose regs are out of range, but the replayer must not
        // trust the state the machine handed it.
        for (MReg r : uop.srcs) {
            if (r < 0 ||
                static_cast<size_t>(r) >= res.regs.size()) {
                return finish(Stop::BadPc);
            }
        }

        switch (uop.kind) {
          case MKind::Ret:
            return finish(Stop::FrameReturn);
          case MKind::CallDirect:
          case MKind::CallIndirect:
            return finish(Stop::CallBoundary);
          case MKind::ABegin:
            return finish(Stop::RegionEntry);
          case MKind::AEnd:
            return finish(Stop::RegionEnd);
          case MKind::AAbort:
            return finish(Stop::ExplicitAbort);
          case MKind::Spawn:
            return finish(Stop::Spawned);
          default:
            break;
        }

        ++res.uops;
        int next_pc = res.pc + 1;

        switch (uop.kind) {
          case MKind::Imm:
            reg(uop.dst) = uop.imm;
            break;
          case MKind::Mov:
            reg(uop.dst) = reg(uop.srcs[0]);
            break;
          case MKind::Alu: {
            const int64_t a = reg(uop.srcs[0]);
            const int64_t b = reg(uop.srcs[1]);
            int64_t out = 0;
            switch (uop.alu) {
              case AluOp::Add: out = arith::javaAdd(a, b); break;
              case AluOp::Sub: out = arith::javaSub(a, b); break;
              case AluOp::Mul: out = arith::javaMul(a, b); break;
              case AluOp::Div:
                if (b == 0) {
                    trapAt(TrapKind::DivideByZero, uop);
                    return finish(Stop::Trapped);
                }
                out = arith::javaDiv(a, b);
                break;
              case AluOp::Rem:
                if (b == 0) {
                    trapAt(TrapKind::DivideByZero, uop);
                    return finish(Stop::Trapped);
                }
                out = arith::javaRem(a, b);
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
                out = static_cast<uint64_t>(a) <
                      static_cast<uint64_t>(b);
                break;
            }
            reg(uop.dst) = out;
            break;
          }

          case MKind::Load: {
            const int64_t base_ref = reg(uop.srcs[0]);
            if (base_ref == 0) {
                trapAt(TrapKind::NullPointer, uop);
                return finish(Stop::Trapped);
            }
            uint64_t addr = static_cast<uint64_t>(base_ref) +
                            static_cast<uint64_t>(uop.imm);
            if (uop.srcs.size() > 1)
                addr += static_cast<uint64_t>(reg(uop.srcs[1]));
            reg(uop.dst) = doLoad(addr);
            break;
          }
          case MKind::Store: {
            const int64_t base_ref = reg(uop.srcs[0]);
            if (base_ref == 0) {
                trapAt(TrapKind::NullPointer, uop);
                return finish(Stop::Trapped);
            }
            uint64_t addr = static_cast<uint64_t>(base_ref) +
                            static_cast<uint64_t>(uop.imm);
            if (uop.srcs.size() > 2)
                addr += static_cast<uint64_t>(reg(uop.srcs[1]));
            if (!doStore(addr, reg(uop.srcs.back())))
                return finish(Stop::WildStore);
            break;
          }

          case MKind::Br: {
            const bool cond = reg(uop.srcs[0]) != 0;
            const bool take = uop.brIfZero ? !cond : cond;
            if (take)
                next_pc = uop.target;
            break;
          }
          case MKind::Jmp:
            next_pc = uop.target;
            break;

          case MKind::Cas: {
            const int64_t base_ref = reg(uop.srcs[0]);
            if (base_ref == 0) {
                trapAt(TrapKind::NullPointer, uop);
                return finish(Stop::Trapped);
            }
            const uint64_t addr = static_cast<uint64_t>(base_ref) +
                                  static_cast<uint64_t>(uop.imm);
            const int64_t old = doLoad(addr);
            if (old == 0) {
                if (!doStore(addr, reg(uop.srcs[1])))
                    return finish(Stop::WildStore);
            }
            reg(uop.dst) = old;
            break;
          }
          case MKind::TidWord:
            reg(uop.dst) = layout::lockWord(ctx_id, 1);
            break;
          case MKind::LockSlow: {
            const int64_t obj_ref = reg(uop.srcs[0]);
            if (obj_ref == 0) {
                trapAt(TrapKind::NullPointer, uop);
                return finish(Stop::Trapped);
            }
            const uint64_t lock_addr =
                static_cast<uint64_t>(obj_ref) + layout::HDR_LOCK;
            const int64_t word = doLoad(lock_addr);
            const int owner = layout::lockOwner(word);
            if (owner == -1) {
                if (!doStore(lock_addr, layout::lockWord(ctx_id, 1)))
                    return finish(Stop::WildStore);
            } else if (owner == ctx_id) {
                if (!doStore(lock_addr,
                             layout::lockWord(
                                 ctx_id,
                                 layout::lockDepth(word) + 1))) {
                    return finish(Stop::WildStore);
                }
            } else {
                // The real machine would park the context here; the
                // replay stops (the scheduler's interleaving past
                // this point is not the replayer's to predict).
                return finish(Stop::Blocked);
            }
            break;
          }
          case MKind::UnlockSlow: {
            const int64_t obj_ref = reg(uop.srcs[0]);
            if (obj_ref == 0) {
                trapAt(TrapKind::NullPointer, uop);
                return finish(Stop::Trapped);
            }
            const uint64_t lock_addr =
                static_cast<uint64_t>(obj_ref) + layout::HDR_LOCK;
            const int64_t word = doLoad(lock_addr);
            if (layout::lockOwner(word) != ctx_id)
                return finish(Stop::BadMonitor);
            const int64_t depth = layout::lockDepth(word) - 1;
            if (!doStore(lock_addr,
                         depth == 0 ? 0
                                    : layout::lockWord(ctx_id,
                                                       depth))) {
                return finish(Stop::WildStore);
            }
            break;
          }

          case MKind::Alloc: {
            uint64_t addr;
            int64_t words;
            if (uop.imm == 0) {
                const int fields = heap.fieldCount(uop.aux);
                words = layout::OBJ_FIELD_BASE + fields;
                addr = view.alloc(static_cast<uint64_t>(words));
                emit(ObsEvent::Kind::Alloc, addr, words);
                if (!doStore(addr + layout::HDR_CLASS, uop.aux))
                    return finish(Stop::WildStore);
            } else {
                const int64_t len = reg(uop.srcs[0]);
                if (len < 0) {
                    trapAt(TrapKind::NegativeArraySize, uop);
                    return finish(Stop::Trapped);
                }
                words = layout::ARR_ELEM_BASE + len;
                addr = view.alloc(static_cast<uint64_t>(words));
                emit(ObsEvent::Kind::Alloc, addr, words);
                if (!doStore(addr + layout::HDR_CLASS,
                             layout::ARRAY_CLASS) ||
                    !doStore(addr + layout::ARR_LEN, len)) {
                    return finish(Stop::WildStore);
                }
            }
            reg(uop.dst) = static_cast<int64_t>(addr);
            break;
          }

          case MKind::YieldLoad:
            reg(uop.dst) = doLoad(heap.yieldFlagAddr(ctx_id));
            break;

          case MKind::Print:
            emit(ObsEvent::Kind::Print, 0, reg(uop.srcs[0]));
            break;
          case MKind::Marker:
            emit(ObsEvent::Kind::Marker, 0, uop.imm);
            break;

          case MKind::Trap:
            trapAt(static_cast<TrapKind>(uop.aux), uop);
            return finish(Stop::Trapped);

          case MKind::Nop:
            break;

          // Handled by the boundary switch above.
          case MKind::Ret:
          case MKind::CallDirect:
          case MKind::CallIndirect:
          case MKind::Spawn:
          case MKind::ABegin:
          case MKind::AEnd:
          case MKind::AAbort:
            break;
        }

        res.pc = next_pc;
    }
}

void
BisimOracle::compare(int ctx_id, const MachineFunction &fn,
                     AbortCause cause,
                     const ReplayResult &from_checkpoint,
                     const ReplayResult &from_post_abort)
{
    auto prefix = [&](std::ostringstream &os) -> std::ostringstream & {
        os << "bisimulation (" << fn.name << ", abort cause "
           << abortCauseName(cause) << "): ";
        return os;
    };

    if (from_checkpoint.stop != from_post_abort.stop) {
        std::ostringstream os;
        prefix(os) << "replay from checkpoint stopped at "
                   << stopName(from_checkpoint.stop)
                   << " but replay from post-abort state stopped at "
                   << stopName(from_post_abort.stop);
        report(ctx_id, os.str());
        return;
    }
    if (from_checkpoint.uops != from_post_abort.uops) {
        std::ostringstream os;
        prefix(os) << "replay lengths differ: " << from_checkpoint.uops
                   << " uops from checkpoint, " << from_post_abort.uops
                   << " from post-abort state";
        report(ctx_id, os.str());
    }
    if (from_checkpoint.pc != from_post_abort.pc) {
        std::ostringstream os;
        prefix(os) << "final pc differs: " << from_checkpoint.pc
                   << " from checkpoint, " << from_post_abort.pc
                   << " from post-abort state";
        report(ctx_id, os.str());
    }
    if (from_checkpoint.allocPtr != from_post_abort.allocPtr) {
        std::ostringstream os;
        prefix(os) << "allocation watermark differs: "
                   << from_checkpoint.allocPtr << " from checkpoint, "
                   << from_post_abort.allocPtr
                   << " from post-abort state";
        report(ctx_id, os.str());
    }

    const bool ck_trap = from_checkpoint.trap.has_value();
    const bool pa_trap = from_post_abort.trap.has_value();
    if (ck_trap != pa_trap) {
        std::ostringstream os;
        prefix(os) << "trap identity differs: "
                   << (ck_trap
                           ? vm::trapName(from_checkpoint.trap->kind)
                           : "none")
                   << " from checkpoint, "
                   << (pa_trap
                           ? vm::trapName(from_post_abort.trap->kind)
                           : "none")
                   << " from post-abort state";
        report(ctx_id, os.str());
    } else if (ck_trap) {
        const vm::Trap &a = *from_checkpoint.trap;
        const vm::Trap &b = *from_post_abort.trap;
        if (a.kind != b.kind || a.method != b.method || a.pc != b.pc) {
            std::ostringstream os;
            prefix(os) << "trap identity differs: "
                       << vm::trapName(a.kind) << " at method "
                       << a.method << " pc " << a.pc
                       << " from checkpoint vs " << vm::trapName(b.kind)
                       << " at method " << b.method << " pc " << b.pc
                       << " from post-abort state";
            report(ctx_id, os.str());
        }
    }

    if (from_checkpoint.regs.size() != from_post_abort.regs.size()) {
        std::ostringstream os;
        prefix(os) << "register file size differs: "
                   << from_checkpoint.regs.size()
                   << " from checkpoint, "
                   << from_post_abort.regs.size()
                   << " from post-abort state";
        report(ctx_id, os.str());
    } else {
        for (size_t r = 0; r < from_checkpoint.regs.size(); ++r) {
            if (from_checkpoint.regs[r] == from_post_abort.regs[r])
                continue;
            std::ostringstream os;
            prefix(os) << "register r" << r
                       << " differs at the replay horizon: "
                       << from_checkpoint.regs[r]
                       << " from checkpoint, "
                       << from_post_abort.regs[r]
                       << " from post-abort state";
            report(ctx_id, os.str());
        }
    }

    const size_t n = std::min(from_checkpoint.events.size(),
                              from_post_abort.events.size());
    for (size_t i = 0; i < n; ++i) {
        const ObsEvent &a = from_checkpoint.events[i];
        const ObsEvent &b = from_post_abort.events[i];
        if (a == b)
            continue;
        std::ostringstream os;
        prefix(os) << "observable event " << i
                   << " differs: kind " << static_cast<int>(a.kind)
                   << " (" << a.a << ", " << a.b
                   << ") from checkpoint vs kind "
                   << static_cast<int>(b.kind) << " (" << b.a << ", "
                   << b.b << ") from post-abort state";
        report(ctx_id, os.str());
        return;
    }
    if (from_checkpoint.events.size() !=
        from_post_abort.events.size()) {
        std::ostringstream os;
        prefix(os) << "observable event counts differ: "
                   << from_checkpoint.events.size()
                   << " from checkpoint, "
                   << from_post_abort.events.size()
                   << " from post-abort state";
        report(ctx_id, os.str());
    }
}

void
BisimOracle::checkAbort(int ctx_id, int method,
                        const std::vector<int64_t> &checkpoint_regs,
                        int alt_pc,
                        const std::vector<int64_t> &post_regs,
                        int post_pc, const vm::Heap &heap,
                        AbortCause cause)
{
    ++checkCount;
    const MachineFunction &fn = mp.func(method);

    const ReplayResult from_checkpoint =
        replay(ctx_id, fn, checkpoint_regs, alt_pc, heap);
    const ReplayResult from_post_abort =
        replay(ctx_id, fn, post_regs, post_pc, heap);

    compare(ctx_id, fn, cause, from_checkpoint, from_post_abort);
}

} // namespace aregion::hw

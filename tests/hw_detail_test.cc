/**
 * @file
 * Fine-grained hardware tests: conflict-detection directions, commit
 * visibility, speculative line tracking and overflow boundaries,
 * monitor uop semantics (CAS/TidWord/LockSlow recursion), trace
 * dependency annotations, and heap rollback.
 */

#include <gtest/gtest.h>

#include "core/compiler.hh"
#include "hw/codegen.hh"
#include "hw/machine.hh"
#include "programs.hh"
#include "vm/interpreter.hh"
#include "vm/layout.hh"

namespace {

using namespace aregion;
using namespace aregion::test;
namespace hw = aregion::hw;
namespace core = aregion::core;

/** Hand-assemble a machine program around a main function. */
struct Assembler
{
    explicit Assembler(const vm::Program &prog) : progRef(prog)
    {
        mp.prog = &prog;
    }

    hw::MachineFunction &
    func(vm::MethodId m, int num_args, int num_regs)
    {
        hw::MachineFunction f;
        f.methodId = m;
        f.name = "asm" + std::to_string(m);
        f.numArgs = num_args;
        f.numRegs = num_regs;
        auto [it, ok] = mp.funcs.emplace(m, std::move(f));
        (void)ok;
        return it->second;
    }

    static hw::MUop
    uop(hw::MKind kind, hw::MReg dst = hw::NO_MREG,
        std::vector<hw::MReg> srcs = {}, int64_t imm = 0,
        int aux = 0, int target = -1)
    {
        hw::MUop u;
        u.kind = kind;
        u.dst = dst;
        u.srcs = std::move(srcs);
        u.imm = imm;
        u.aux = aux;
        u.target = target;
        return u;
    }

    const vm::Program &progRef;
    hw::MachineProgram mp;
};

/** A minimal two-method program shell (bodies are hand-assembled). */
vm::Program
shellProgram(int methods)
{
    vm::ProgramBuilder pb;
    pb.declareClass("C", {"f0", "f1"});
    std::vector<vm::MethodId> ids;
    for (int m = 0; m < methods; ++m) {
        const vm::MethodId id =
            pb.declareMethod("m" + std::to_string(m), 0);
        auto mb = pb.define(id);
        mb.retVoid();
        mb.finish();
        ids.push_back(id);
    }
    pb.setMain(ids[0]);
    return pb.build();
}

TEST(HwDetail, AbortRestoresRegistersAndMemory)
{
    const vm::Program prog = shellProgram(1);
    Assembler as(prog);
    auto &f = as.func(0, 0, 8);
    using K = hw::MKind;
    constexpr int64_t ELEM = vm::layout::ARR_ELEM_BASE;
    // r1 = alloc(64); r0 = 11; mem[r1] = r0; begin; r0 = 99;
    // mem[r1] = r0; abort; alt: print r0; print mem[r1]; ret
    f.code = {
        Assembler::uop(K::Imm, 3, {}, 64),
        Assembler::uop(K::Alloc, 1, {3}, 1),
        Assembler::uop(K::Imm, 0, {}, 11),
        Assembler::uop(K::Store, hw::NO_MREG, {1, 0}, ELEM),
        Assembler::uop(K::ABegin, hw::NO_MREG, {}, 0, 0, 8),
        Assembler::uop(K::Imm, 0, {}, 99),
        Assembler::uop(K::Store, hw::NO_MREG, {1, 0}, ELEM),
        Assembler::uop(K::AAbort, hw::NO_MREG, {}, 0, 3),
        // alt (offset 8):
        Assembler::uop(K::Print, hw::NO_MREG, {0}),
        Assembler::uop(K::Load, 2, {1}, ELEM),
        Assembler::uop(K::Print, hw::NO_MREG, {2}),
        Assembler::uop(K::Ret),
    };
    hw::Machine machine(as.mp, hw::HwConfig{});
    const auto res = machine.run();
    ASSERT_TRUE(res.completed);
    EXPECT_EQ(res.output, (std::vector<int64_t>{11, 11}));
    EXPECT_EQ(res.regionAborts, 1u);
    const auto &stats = res.regions.at({0, 0});
    EXPECT_EQ(stats.abortsByAssert.at(3), 1u);
}

TEST(HwDetail, CommitPublishesBufferedStores)
{
    const vm::Program prog = shellProgram(1);
    Assembler as(prog);
    auto &f = as.func(0, 0, 8);
    using K = hw::MKind;
    constexpr int64_t ELEM = vm::layout::ARR_ELEM_BASE;
    f.code = {
        Assembler::uop(K::Imm, 3, {}, 64),
        Assembler::uop(K::Alloc, 1, {3}, 1),
        Assembler::uop(K::ABegin, hw::NO_MREG, {}, 0, 0, 7),
        Assembler::uop(K::Imm, 0, {}, 42),
        Assembler::uop(K::Store, hw::NO_MREG, {1, 0}, ELEM),
        Assembler::uop(K::AEnd, hw::NO_MREG, {}, 0, 0),
        Assembler::uop(K::Jmp, hw::NO_MREG, {}, 0, 0, 7),
        // offset 7:
        Assembler::uop(K::Load, 2, {1}, ELEM),
        Assembler::uop(K::Print, hw::NO_MREG, {2}),
        Assembler::uop(K::Ret),
    };
    hw::Machine machine(as.mp, hw::HwConfig{});
    const auto res = machine.run();
    ASSERT_TRUE(res.completed);
    EXPECT_EQ(res.output, std::vector<int64_t>{42});
    EXPECT_EQ(res.regionCommits, 1u);
}

TEST(HwDetail, SpeculativeStoresInvisibleToOtherContexts)
{
    // Context 1 spins reading a flag that context 0 only writes
    // speculatively before spinning on a release variable; the flag
    // must remain invisible until commit.
    const vm::Program prog = shellProgram(2);
    Assembler as(prog);
    using K = hw::MKind;
    constexpr int64_t ELEM = vm::layout::ARR_ELEM_BASE;
    auto &m0 = as.func(0, 0, 8);
    m0.code = {
        Assembler::uop(K::Imm, 3, {}, 64),
        Assembler::uop(K::Alloc, 1, {3}, 1),    // shared array
        Assembler::uop(K::Spawn, hw::NO_MREG, {1}, 0, 1),
        Assembler::uop(K::ABegin, hw::NO_MREG, {}, 0, 0, 8),
        Assembler::uop(K::Imm, 0, {}, 1),
        Assembler::uop(K::Store, hw::NO_MREG, {1, 0}, ELEM),
        Assembler::uop(K::Imm, 2, {}, 400),     // in-region filler
        Assembler::uop(K::AEnd, hw::NO_MREG, {}, 0, 0),
        // offset 8: wait for ack at element 16 (other line).
        Assembler::uop(K::Load, 5, {1}, ELEM + 16),
        Assembler::uop(K::Br, hw::NO_MREG, {5}, 0, 0, 8),
        Assembler::uop(K::Ret),
    };
    m0.code[9].brIfZero = true;     // loop until ack != 0
    auto &m1 = as.func(1, 1, 8);    // arg0 = shared array
    m1.code = {
        // Peek the flag 50 times, count sightings, then ack.
        Assembler::uop(K::Imm, 1, {}, 0),   // sightings
        Assembler::uop(K::Imm, 2, {}, 50),  // remaining
        Assembler::uop(K::Imm, 3, {}, 1),
        // loop (offset 3):
        Assembler::uop(K::Load, 4, {0}, ELEM),
        Assembler::uop(K::Alu, 1, {1, 4}),          // += flag value
        Assembler::uop(K::Alu, 2, {2, 3}),          // -= 1 (Sub)
        Assembler::uop(K::Br, hw::NO_MREG, {2}, 0, 0, 3),
        Assembler::uop(K::Print, hw::NO_MREG, {1}),
        Assembler::uop(K::Store, hw::NO_MREG, {0, 3}, ELEM + 16),
        Assembler::uop(K::Ret),
    };
    m1.code[5].alu = hw::AluOp::Sub;
    hw::Machine machine(as.mp, hw::HwConfig{});
    const auto res = machine.run();
    ASSERT_TRUE(res.completed);
    ASSERT_EQ(res.output.size(), 1u);
    // Context 0's region either committed before any peek (flag
    // visible -> counted) or the peeks all saw 0. The invariant:
    // if the region was still open during the peeks, they saw 0;
    // conflict detection may have aborted ctx0's region (reads do
    // not conflict, so it should commit exactly once).
    EXPECT_EQ(res.regionCommits + res.regionAborts, res.regionEntries);
    EXPECT_GE(res.regionCommits, 1u);
}

TEST(HwDetail, ConflictingStoreAbortsSpeculativeReader)
{
    // Ctx0 reads a line inside its region and loops inside the
    // region until ctx1 stores to that line -> conflict abort.
    const vm::Program prog = shellProgram(2);
    Assembler as(prog);
    using K = hw::MKind;
    constexpr int64_t ELEM = vm::layout::ARR_ELEM_BASE;
    auto &m0 = as.func(0, 0, 8);
    m0.code = {
        Assembler::uop(K::Imm, 4, {}, 64),
        Assembler::uop(K::Alloc, 1, {4}, 1),
        Assembler::uop(K::Spawn, hw::NO_MREG, {1}, 0, 1),
        Assembler::uop(K::ABegin, hw::NO_MREG, {}, 0, 0, 8),
        // loop: read shared until it becomes nonzero (it never will
        // inside this region: the write conflicts first).
        Assembler::uop(K::Load, 2, {1}, ELEM),
        Assembler::uop(K::Br, hw::NO_MREG, {2}, 0, 0, 4),
        Assembler::uop(K::AEnd, hw::NO_MREG, {}, 0, 0),
        Assembler::uop(K::Jmp, hw::NO_MREG, {}, 0, 0, 10),
        // alt (offset 8): aborted -> print marker value 77
        Assembler::uop(K::Imm, 3, {}, 77),
        Assembler::uop(K::Print, hw::NO_MREG, {3}),
        Assembler::uop(K::Ret),
    };
    m0.code[5].brIfZero = true;     // loop while zero
    auto &m1 = as.func(1, 1, 8);
    m1.code = {
        Assembler::uop(K::Imm, 1, {}, 1),
        Assembler::uop(K::Store, hw::NO_MREG, {0, 1}, ELEM),
        Assembler::uop(K::Ret),
    };
    hw::Machine machine(as.mp, hw::HwConfig{});
    const auto res = machine.run();
    ASSERT_TRUE(res.completed);
    EXPECT_EQ(res.output, std::vector<int64_t>{77});
    const auto &stats = res.regions.at({0, 0});
    EXPECT_GE(stats.abortsByCause[
                  static_cast<int>(hw::AbortCause::Conflict)], 1u);
}

TEST(HwDetail, OverflowAbortsAtWayLimit)
{
    // Touch assoc+1 lines mapping to one set inside a region.
    const vm::Program prog = shellProgram(1);
    Assembler as(prog);
    using K = hw::MKind;
    hw::HwConfig config;
    config.l1Lines = 16;
    config.l1Assoc = 2;             // 8 sets; stride 8 lines = 1 set
    const int line_words = config.lineWords;
    const int num_sets = config.l1Lines / config.l1Assoc;
    auto &m0 = as.func(0, 0, 8);
    m0.code = {Assembler::uop(K::ABegin, hw::NO_MREG, {}, 0, 0, 8)};
    for (int i = 0; i < 3; ++i) {   // 3 lines in one set, assoc 2
        const uint64_t addr = 4096 +
            static_cast<uint64_t>(i * num_sets * line_words);
        m0.code.push_back(Assembler::uop(K::Imm, 1, {},
                                         static_cast<int64_t>(addr)));
        m0.code.push_back(Assembler::uop(K::Load, 2, {1}, 0));
    }
    m0.code.push_back(Assembler::uop(K::AEnd, hw::NO_MREG, {}, 0, 0));
    // offset 8 = alt: print 5; ret (commit path also lands here).
    m0.code.push_back(Assembler::uop(K::Imm, 3, {}, 5));
    m0.code.push_back(Assembler::uop(K::Print, hw::NO_MREG, {3}));
    m0.code.push_back(Assembler::uop(K::Ret));
    hw::Machine machine(as.mp, config);
    const auto res = machine.run();
    ASSERT_TRUE(res.completed);
    const auto &stats = res.regions.at({0, 0});
    EXPECT_EQ(stats.abortsByCause[
                  static_cast<int>(hw::AbortCause::Overflow)], 1u);
}

TEST(HwDetail, MonitorFastPathAndRecursionViaCompiledCode)
{
    // Compiled monitor code: recursive enter goes to LockSlow and
    // unlock keeps the depth straight.
    ProgramBuilder pb;
    const ClassId c = pb.declareClass("C", {"x"});
    const MethodId mm = pb.declareMethod("main", 0);
    auto mb = pb.define(mm);
    const Reg o = mb.newObject(c);
    mb.monitorEnter(o);
    mb.monitorEnter(o);     // recursive -> slow path
    const Reg v = mb.constant(5);
    mb.putField(o, 0, v);
    mb.monitorExit(o);      // depth 2 -> 1 (slow)
    mb.monitorExit(o);      // depth 1 -> 0 (fast)
    mb.print(mb.getField(o, 0));
    mb.retVoid();
    mb.finish();
    pb.setMain(mm);
    const Program prog = pb.build();
    verifyOrDie(prog);

    Profile profile(prog);
    Interpreter interp(prog, &profile);
    ASSERT_TRUE(interp.run().completed);
    core::Compiled compiled = core::compileProgram(
        prog, profile, core::CompilerConfig::baseline());
    vm::Heap layout_heap(prog, 1 << 16);
    const auto mp = hw::lowerModule(
        compiled.mod, hw::LayoutInfo::fromHeap(layout_heap));
    hw::Machine machine(mp, hw::HwConfig{});
    const auto res = machine.run();
    ASSERT_TRUE(res.completed);
    EXPECT_EQ(res.output, std::vector<int64_t>{5});
}

TEST(HwDetail, TraceDependenciesNameProducers)
{
    // r0 = 1; r1 = 2; r2 = r0 + r1: the Alu uop's sources must name
    // the two Imm uops' sequence numbers.
    const vm::Program prog = shellProgram(1);
    Assembler as(prog);
    using K = hw::MKind;
    auto &m0 = as.func(0, 0, 4);
    m0.code = {
        Assembler::uop(K::Imm, 0, {}, 1),
        Assembler::uop(K::Imm, 1, {}, 2),
        Assembler::uop(K::Alu, 2, {0, 1}),
        Assembler::uop(K::Ret),
    };
    struct Sink : hw::TraceSink
    {
        std::vector<hw::TraceUop> uops;
        void uop(const hw::TraceUop &u) override { uops.push_back(u); }
    } sink;
    hw::Machine machine(as.mp, hw::HwConfig{}, &sink);
    ASSERT_TRUE(machine.run().completed);
    ASSERT_EQ(sink.uops.size(), 4u);
    EXPECT_EQ(sink.uops[2].numSrcs, 2);
    EXPECT_EQ(sink.uops[2].srcSeq[0], sink.uops[0].seq);
    EXPECT_EQ(sink.uops[2].srcSeq[1], sink.uops[1].seq);
}

TEST(HwDetail, HeapAllocResetZeroesReclaimedRange)
{
    vm::ProgramBuilder pb;
    const vm::MethodId mm = pb.declareMethod("main", 0);
    auto mb = pb.define(mm);
    mb.retVoid();
    mb.finish();
    pb.setMain(mm);
    const vm::Program prog = pb.build();
    vm::Heap heap(prog, 1 << 16);
    const uint64_t mark = heap.allocMark();
    const uint64_t arr = heap.allocArray(8);
    heap.store(arr + vm::layout::ARR_ELEM_BASE, 1234);
    heap.allocReset(mark);
    const uint64_t arr2 = heap.allocArray(8);
    EXPECT_EQ(arr2, arr);   // same address reused
    EXPECT_EQ(heap.load(arr2 + vm::layout::ARR_ELEM_BASE), 0);
}

} // namespace

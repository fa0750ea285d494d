/**
 * @file
 * Timing-model detail tests on synthetic traces: ROB-occupancy
 * stalls, cache-latency effects, store-stream gating of locked
 * operations, single-inflight region spacing, abort-flush penalties,
 * producer ageing across skipped sequence numbers, and a long random
 * script pinned cycle for cycle on four machines.
 */

#include <array>
#include <cstdint>
#include <random>
#include <vector>

#include <gtest/gtest.h>

#include "hw/timing.hh"
#include "support/fnv.hh"

namespace {

namespace hw = aregion::hw;

hw::TraceUop
alu(uint64_t seq, uint64_t dep = 0)
{
    hw::TraceUop u;
    u.seq = seq;
    u.pc = 0x100 + seq % 256;
    u.lat = hw::LatClass::Int;
    if (dep) {
        u.numSrcs = 1;
        u.srcSeq[0] = dep;
    }
    return u;
}

hw::TraceUop
load(uint64_t seq, uint64_t addr)
{
    hw::TraceUop u = alu(seq);
    u.lat = hw::LatClass::Load;
    u.isLoad = true;
    u.memAddr = addr;
    return u;
}

TEST(TimingDetail, RobOccupancyBoundsRuntimeDistance)
{
    // One very slow load followed by thousands of independent ALU
    // ops: dispatch must stall once the ROB fills behind the load.
    hw::TimingModel tm(hw::TimingConfig::baseline());
    tm.uop(load(1, 0x900000));      // cold: memory latency
    for (uint64_t i = 2; i <= 2000; ++i)
        tm.uop(alu(i));
    // Without the ROB bound, 2000 uops at width 4 ~= 500 cycles; the
    // 400-cycle miss holding the ROB head forces > 700.
    EXPECT_GT(tm.cycles(), 700u);
}

TEST(TimingDetail, CacheHitsAreFastAfterWarmup)
{
    hw::TimingModel cold(hw::TimingConfig::baseline());
    hw::TimingModel warm(hw::TimingConfig::baseline());
    // Cold: every load a new line, every other line so the next-line
    // prefetcher never covers one. Warm: same line repeatedly.
    for (uint64_t i = 1; i <= 400; ++i) {
        cold.uop(load(i, 0x10000 + i * 2 * hw::kLineWords));
        warm.uop(load(i, 0x10000));
    }
    EXPECT_GT(cold.cycles(), 2 * warm.cycles());
    EXPECT_GT(cold.l1Misses(), warm.l1Misses() + 100);
}

TEST(TimingDetail, SerializingGatesMemoryNotAlu)
{
    // CAS followed by independent ALU ops is cheap; CAS followed by
    // independent loads pays the gate.
    auto run = [&](bool memory_after) {
        hw::TimingModel tm(hw::TimingConfig::baseline());
        uint64_t seq = 0;
        for (int rep = 0; rep < 100; ++rep) {
            hw::TraceUop cas = alu(++seq);
            cas.lat = hw::LatClass::Serial;
            cas.serializing = true;
            cas.isLoad = cas.isStore = true;
            cas.memAddr = 0x5000;
            tm.uop(cas);
            for (int i = 0; i < 10; ++i) {
                if (memory_after)
                    tm.uop(load(++seq, 0x5000));
                else
                    tm.uop(alu(++seq));
            }
        }
        return tm.cycles();
    };
    EXPECT_GT(run(true), run(false));
}

TEST(TimingDetail, SingleInflightSpacesRegions)
{
    auto run = [&](hw::TimingConfig cfg) {
        hw::TimingModel tm(cfg);
        uint64_t seq = 0;
        for (int region = 0; region < 200; ++region) {
            hw::TraceUop begin = alu(++seq);
            begin.region = hw::RegionEvent::Begin;
            tm.uop(begin);
            // A slow in-region load keeps the region "open" long.
            tm.uop(load(++seq, 0x800000 + static_cast<uint64_t>(
                                   region) * 4096));
            hw::TraceUop end = alu(++seq);
            end.region = hw::RegionEvent::End;
            tm.uop(end);
        }
        return tm.cycles();
    };
    // The loads lie 512 lines apart, out of the prefetcher's reach.
    EXPECT_GT(run(hw::TimingConfig::singleInflight()),
              run(hw::TimingConfig::baseline()));
}

TEST(TimingDetail, BeginStallChargesPerRegion)
{
    auto run = [&](hw::TimingConfig cfg) {
        hw::TimingModel tm(cfg);
        uint64_t seq = 0;
        for (int region = 0; region < 500; ++region) {
            hw::TraceUop begin = alu(++seq);
            begin.region = hw::RegionEvent::Begin;
            tm.uop(begin);
            for (int i = 0; i < 4; ++i)
                tm.uop(alu(++seq));
            hw::TraceUop end = alu(++seq);
            end.region = hw::RegionEvent::End;
            tm.uop(end);
        }
        return tm.cycles();
    };
    const uint64_t chk = run(hw::TimingConfig::baseline());
    const uint64_t stall = run(hw::TimingConfig::stallBegin());
    // ~20 extra cycles per region.
    EXPECT_GT(stall, chk + 500 * 15);
}

TEST(TimingDetail, AbortFlushCostsAPipelineRefill)
{
    auto run = [&](int aborts) {
        hw::TimingModel tm(hw::TimingConfig::baseline());
        uint64_t seq = 0;
        for (int i = 0; i < 2000; ++i) {
            tm.uop(alu(++seq));
            if (aborts && i % (2000 / aborts) == 0)
                tm.abortFlush({hw::AbortCause::Explicit, 10, 0});
        }
        return tm.cycles();
    };
    const uint64_t clean = run(0);
    const uint64_t aborted = run(50);
    EXPECT_GT(aborted, clean + 50 * 10);
}

TEST(TimingDetail, RetireIsMonotone)
{
    hw::TimingModel tm(hw::TimingConfig::baseline());
    uint64_t last = 0;
    for (uint64_t i = 1; i <= 500; ++i) {
        tm.uop(alu(i, i > 1 ? i - 1 : 0));
        EXPECT_GE(tm.cycles(), last);
        last = tm.cycles();
    }
}

TEST(TimingDetail, SkippedNumbersDoNotMakeAConsumerWaitOnANewerUop)
{
    // The machine skips the number of a uop it never delivers (an
    // aborting assert, a blocked monitor enter; trace.hh). Here seqs
    // 2 and 3 are skipped, so by seq kHistory + 2 fewer than kHistory
    // uops have been delivered, yet producer seq 1 is kHistory
    // numbers back and its slot holds seq kHistory + 1: a cold load.
    // A consumer of seq 1 must treat it as long complete, not wait
    // on that load.
    constexpr uint64_t H = hw::TimingModel::kHistory;
    hw::TimingModel tm(hw::TimingConfig::baseline());
    tm.uop(alu(1));
    for (uint64_t seq = 4; seq <= H; ++seq)
        tm.uop(alu(seq));
    tm.uop(load(H + 1, 0x900000));
    const uint64_t before = tm.cycles();

    // Five dependent divides, the first reading seq 1. Independent of
    // the load, they finish long before it and retire right behind
    // it, the last two one cycle later at four retires per cycle.
    // Waiting on the load would add all five latencies, 100 cycles.
    hw::TraceUop div = alu(H + 2, 1);
    div.lat = hw::LatClass::Div;
    for (uint64_t seq = H + 2; seq <= H + 6; ++seq) {
        div.seq = seq;
        tm.uop(div);
        div.srcSeq[0] = seq;
    }
    EXPECT_EQ(tm.cycles(), before + 1);
}

/** One scripted timing-model event. */
struct Ev
{
    enum Kind { Uop, Abort, Marker } kind = Uop;
    hw::TraceUop u;
    hw::AbortEvent abort{hw::AbortCause::Explicit, 0, 0};
    int64_t marker = 0;
};

/**
 * Deterministic synthetic trace exercising every model path: all
 * latency classes, dependences up to 9,000 uops back (far past
 * kHistory), branch and indirect mispredicts, serializing ops, region
 * begin/end/abort, and periodic markers.
 */
std::vector<Ev>
makeScript(size_t n)
{
    std::vector<Ev> script;
    script.reserve(n + n / 500);
    std::mt19937_64 rng(0x5EEDull);
    uint64_t seq = 0;
    bool open = false;
    for (size_t i = 0; i < n; ++i) {
        Ev ev;
        hw::TraceUop &u = ev.u;
        u.seq = ++seq;
        const uint64_t r = rng();
        switch (r % 16) {
          case 6:
            u.lat = hw::LatClass::Mul;
            break;
          case 7:
            u.lat = hw::LatClass::Div;
            break;
          case 8:
          case 9:
          case 10:
            u.lat = hw::LatClass::Load;
            u.isLoad = true;
            break;
          case 11:
          case 12:
            u.lat = hw::LatClass::Store;
            u.isStore = true;
            break;
          case 13:
          case 14:
            u.lat = hw::LatClass::Branch;
            u.isBranch = true;
            u.taken = (r >> 20) & 1;
            break;
          case 15:
            u.lat = hw::LatClass::Serial;
            u.serializing = true;
            u.isStore = true;
            break;
          default:
            u.lat = hw::LatClass::Int;
            break;
        }
        if (u.isLoad || u.isStore) {
            // Hot set plus a streaming tail for L1/L2 misses.
            u.memAddr = (r >> 8) % 3 == 0
                ? (r >> 16) % 64
                : 4096 + (static_cast<uint64_t>(i) * 8) % 300000;
        }
        u.pc = static_cast<uint32_t>((r >> 32) % 509);
        if (!u.isBranch && r % 97 == 0) {
            u.indirect = true;
            u.targetPc = static_cast<uint32_t>((r >> 40) % 31);
        }
        u.numSrcs = static_cast<int8_t>(r % 3);
        for (int s = 0; s < u.numSrcs; ++s) {
            const uint64_t back = 1 + (rng() % 9000);
            u.srcSeq[s] = seq > back ? seq - back : 0;
        }
        if (!open && r % 61 == 0) {
            u.region = hw::RegionEvent::Begin;
            u.regionId = 1;
            open = true;
        } else if (open && r % 41 == 0) {
            u.region = hw::RegionEvent::End;
            u.regionId = 1;
            open = false;
        }
        script.push_back(ev);
        if (open && r % 577 == 0) {
            Ev ab;
            ab.kind = Ev::Abort;
            ab.abort = {hw::AbortCause::Conflict, 5, 0};
            script.push_back(ab);
            open = false;
        }
        if (i % 1000 == 999) {
            Ev mk;
            mk.kind = Ev::Marker;
            mk.marker = static_cast<int64_t>(i);
            script.push_back(mk);
        }
    }
    return script;
}

TEST(TimingDetail, ScriptMatchesRecordedCyclesOnFourMachines)
{
    // Recorded from the model that kept 8,192 entries of history as
    // 32-bit offsets. The script's numbers are dense, so those runs
    // aged every producer exactly; kHistory entries must give the same
    // cycles, stall counts, cache misses and marker cycles.
    struct Recorded
    {
        hw::TimingConfig cfg;
        uint64_t cycles;
        /** stallRob, stallSched, stallFetch, stallSerial, stallRegion */
        std::array<uint64_t, 5> stalls;
        uint64_t l1Misses;
        uint64_t l2Misses;
        uint64_t markerFold;    ///< FNV-1a of the (id, cycle) pairs
    };
    const Recorded recorded[] = {
        {hw::TimingConfig::baseline(), 317203, {0, 2393, 3475, 3069, 0},
         11781, 10962, 0xfd4ad4745e3eac0cull},
        {hw::TimingConfig::stallBegin(), 319406, {0, 2360, 3443, 3017, 494},
         11781, 10962, 0x0fe41b5b775fbaa2ull},
        {hw::TimingConfig::singleInflight(), 346254,
         {0, 1735, 3487, 3109, 232}, 11781, 10962, 0x4cacba90c71451ccull},
        {hw::TimingConfig::twoWideHalf(), 547425, {0, 3160, 3417, 2767, 0},
         11784, 10962, 0x913ffe8603c9ab12ull},
    };

    const std::vector<Ev> script = makeScript(50000);
    for (const Recorded &want : recorded) {
        SCOPED_TRACE(want.cfg.name);
        hw::TimingModel tm(want.cfg);
        for (const Ev &ev : script) {
            switch (ev.kind) {
              case Ev::Uop:
                tm.uop(ev.u);
                break;
              case Ev::Abort:
                tm.abortFlush(ev.abort);
                break;
              case Ev::Marker:
                tm.marker(ev.marker);
                break;
            }
        }
        EXPECT_EQ(tm.cycles(), want.cycles);
        // The trace fixes these on every machine.
        EXPECT_EQ(tm.uopCount, 50000u);
        EXPECT_EQ(tm.branches, 6232u);
        EXPECT_EQ(tm.mispredicts, 3094u);
        EXPECT_EQ(tm.indirectMispredicts, 454u);
        EXPECT_EQ(tm.serializations, 3063u);
        EXPECT_EQ(tm.regionBegins, 494u);
        EXPECT_EQ(tm.abortFlushes, 31u);
        const std::array<uint64_t, 5> stalls = {
            tm.stallRob, tm.stallSched, tm.stallFetch, tm.stallSerial,
            tm.stallRegion};
        EXPECT_EQ(stalls, want.stalls);
        EXPECT_EQ(tm.l1Misses(), want.l1Misses);
        EXPECT_EQ(tm.l2Misses(), want.l2Misses);
        ASSERT_EQ(tm.markerCycles.size(), 50u);
        uint64_t fold = aregion::kFnvOffsetBasis;
        for (const auto &[id, cycle] : tm.markerCycles) {
            fold = aregion::fnvWord(fold, static_cast<uint64_t>(id));
            fold = aregion::fnvWord(fold, cycle);
        }
        EXPECT_EQ(fold, want.markerFold);
    }
}

} // namespace

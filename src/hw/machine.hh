/**
 * @file
 * Functional machine simulator with hardware atomicity.
 *
 * Implements the checkpoint substrate of Section 3: a register
 * checkpoint at aregion_begin, store buffering with read/write-set
 * tracking at L1-line granularity, ownership-style eager conflict
 * detection against the other hardware contexts, best-effort limits
 * (set-associativity overflow, timer interrupts, traps, blocking or
 * irrevocable operations), and flash commit/abort.
 *
 * Threads are deterministic hardware contexts scheduled round-robin;
 * context 0 (the benchmark thread) streams its uops to a TraceSink
 * for timing simulation. Trace delivery is batched through
 * TraceSink::uopBatch; batches are flushed before every abortFlush()
 * and marker() so the sink observes the same event order as with
 * per-uop delivery.
 *
 * All speculative state lives in flat, epoch-tagged containers that
 * are allocated once per context and reset in O(1) at aregion_begin,
 * so steady-state region entry never touches the allocator — the
 * "checkpoint is cheap" premise the paper's Section 3 argues for in
 * hardware, mirrored in the simulator's own hot loop.
 */

#ifndef AREGION_HW_MACHINE_HH
#define AREGION_HW_MACHINE_HH

#include <map>
#include <optional>
#include <vector>

#include "hw/cache.hh"
#include "hw/isa.hh"
#include "hw/spec_state.hh"
#include "hw/trace.hh"
#include "support/statistics.hh"
#include "support/telemetry.hh"
#include "vm/heap.hh"
#include "vm/trap.hh"

namespace aregion::failpoint {
class Failpoint;
} // namespace aregion::failpoint

namespace aregion::hw {

class BisimOracle;
class RollbackOracle;

/**
 * Contention-control hook (runtime/resilience.hh implements it):
 * consulted after every abort for a backoff stall and informed of
 * every commit so fairness windows can reset. Attach-only, like
 * RollbackOracle; nullptr (the default) is fully inert. The machine
 * serializes all calls (contexts are stepped round-robin on one host
 * thread), so implementations need no locking of their own.
 */
class ContentionControl
{
  public:
    virtual ~ContentionControl() = default;

    /** The abort handler for `ctx_id` just ran; return how many
     *  scheduler steps the context must stall before resuming on the
     *  alternate path (0 = no backoff). */
    virtual uint64_t onAbort(int ctx_id, AbortCause cause) = 0;

    /** A region of `ctx_id` committed. */
    virtual void onCommit(int ctx_id) = 0;
};

/** Architectural (functional) hardware parameters. */
struct HwConfig
{
    /** L1 geometry bounding speculative footprints (32KB/4-way/64B
     *  lines of Table 1 -> 512 lines, 128 sets, 8 words per line). */
    int l1Lines = 512;
    int l1Assoc = 4;
    static constexpr int lineWords = kLineWords;

    /** Executed uops between timer interrupts (machine-wide). */
    uint64_t interruptPeriod = 4'000'000;

    /** Scheduler quantum (uops) per context. */
    uint64_t quantum = 50;

    /**
     * Hardware context (thread) capacity. Sizes the heap's
     * yield-flag block, so raising it shifts every heap address —
     * the default mirrors the interpreter's layout::MAX_THREADS to
     * keep the historical memory map (and therefore all timing
     * figures) byte-identical. The contention harness raises it to
     * run up to 32 worker contexts.
     */
    int maxContexts = vm::layout::MAX_THREADS;

    /** Always 0: there is no livelock guard. An abort runs the
     *  region's alternate path, so an always-aborting region still
     *  finishes. Only perfbench reads it, in its cell key. The next
     *  change to the benchmark removes it. */
    static constexpr uint64_t maxConsecutiveAborts = 0;

    bool operator==(const HwConfig &) const = default;
};

/** Runtime statistics for one static region. */
struct RegionRuntime
{
    uint64_t entries = 0;
    uint64_t commits = 0;
    /** Explicit aborts keyed by the compiler's assert id (the
     *  abort-code register of Section 3.2, which adaptive
     *  recompilation maps back to the converted cold edge). */
    std::map<int, uint64_t> abortsByAssert;
    /** Aborts indexed by static_cast<int>(AbortCause); mirrored
     *  process-wide as the `machine.abort.*` telemetry counters
     *  (see docs/TELEMETRY.md). */
    uint64_t abortsByCause[kNumAbortCauses] = {};
    aregion::Histogram dynamicSize;     ///< uops per committed region
    aregion::Histogram footprintLines;  ///< lines touched at commit

    uint64_t
    totalAborts() const
    {
        uint64_t total = 0;
        for (uint64_t c : abortsByCause)
            total += c;
        return total;
    }
};

/** One sampling-marker crossing on the traced context. */
struct MarkerHit
{
    int64_t id;
    uint64_t retiredUops;   ///< traced context's retired uops so far
};

/** Results of a machine run. */
struct MachineResult
{
    bool completed = false;
    std::optional<vm::Trap> trap;

    /** Traced context (0): committed + wasted work. */
    uint64_t retiredUops = 0;       ///< excludes aborted-region uops
    uint64_t executedUops = 0;      ///< includes them
    uint64_t discardedUops = 0;
    uint64_t regionUopsRetired = 0; ///< retired inside regions
    uint64_t allContextUops = 0;

    uint64_t regionEntries = 0;
    uint64_t regionCommits = 0;
    uint64_t regionAborts = 0;
    uint64_t monitorFastEnters = 0; ///< CAS fast-path acquisitions

    /** Fault-injection effects (zero unless failpoints are armed;
     *  `machine.inject.*` telemetry). */
    uint64_t injectedInterrupts = 0;
    uint64_t injectedCapacity = 0;  ///< regions squeezed at begin
    uint64_t injectedAsserts = 0;
    uint64_t injectedConflicts = 0;     ///< forced at aregion_end
    uint64_t injectedCommitStalls = 0;  ///< commits held open
    uint64_t injectedDivergences = 0;   ///< planted rollback bugs

    /** Scheduler steps burned in ContentionControl backoff stalls. */
    uint64_t backoffSteps = 0;

    /** Per static region: (methodId, regionId) -> stats. */
    std::map<std::pair<int, int>, RegionRuntime> regions;

    std::vector<int64_t> output;
    std::vector<MarkerHit> markers;

    /** aregion::outputChecksum of the output stream. */
    uint64_t outputChecksum() const;
};

/** The machine. */
class Machine
{
  public:
    Machine(const MachineProgram &prog, const HwConfig &config,
            TraceSink *sink = nullptr,
            uint64_t max_words = 1ull << 26);

    Machine(MachineProgram &&, const HwConfig &, TraceSink * = nullptr,
            uint64_t = 0) = delete;

    /** Run main to completion (or until the uop budget is hit). */
    MachineResult run(uint64_t max_uops = 1ull << 33);

    const vm::Heap &heap() const { return heapImpl; }

    /** Attach a rollback consistency oracle (hw/oracle.hh). Test
     *  harness only: snapshots the heap at every region entry. Must
     *  outlive run(); nullptr (the default) is fully inert. */
    void setOracle(RollbackOracle *o) { oracle = o; }

    /** Attach a deopt bisimulation oracle (hw/bisim.hh): every abort
     *  is checked by non-speculative replay from the checkpoint.
     *  Same lifetime contract as setOracle; nullptr is inert. */
    void setBisimOracle(BisimOracle *b) { bisim = b; }

    /** Attach a contention controller (runtime/resilience.hh). Same
     *  lifetime contract as setOracle; nullptr is inert. */
    void setContentionControl(ContentionControl *c) { contention = c; }

  private:
    struct Frame
    {
        const MachineFunction *fn = nullptr;
        std::vector<int64_t> regs;
        std::vector<uint64_t> lastWriter;   ///< reg -> producer seq
        int pc = 0;
        MReg retDst = NO_MREG;

        /** Register `r`, bound-checked like every operand. */
        int64_t &reg(MReg r);
    };

    /**
     * Speculative state of one context (one open region; no
     * nesting). Lives persistently inside the Ctx: aregion_begin
     * bumps the container epochs instead of reconstructing, so
     * steady-state region entry is allocation-free.
     */
    struct Spec
    {
        bool active = false;
        int regionId = -1;
        int method = -1;
        int altPc = 0;
        uint64_t uops = 0;
        /** Effective line limit for this region's footprint; set at
         *  aregion_begin to HwConfig::l1Lines, or lower when the
         *  machine.capacity failpoint fires (artificial pressure). */
        int capLines = 0;
        RegionRuntime *stats = nullptr; ///< map node cached at begin
        std::vector<int64_t> regsSnapshot;
        std::vector<uint64_t> writersSnapshot;
        StoreBuffer storeBuf;
        LineSet readLines;
        LineSet writeLines;
        SetOccupancy setOccupancy;
    };

    struct Ctx
    {
        int id = 0;
        /** Frame pool: [0, depth) are the live call stack; returning
         *  pops depth but keeps the frame (and its register vectors'
         *  capacity) for the next invoke. */
        std::vector<Frame> stack;
        size_t depth = 0;
        Spec spec;
        bool finished = false;
        uint64_t blockedOn = 0;             ///< monitor address or 0
        std::optional<AbortCause> pendingAbort;
        std::vector<int64_t> argScratch;    ///< call-argument staging

        /** Scheduler steps this context must burn before executing
         *  again: an injected commit stall (machine.commit_stall)
         *  or a ContentionControl backoff. */
        uint64_t stallSteps = 0;
        /** The open region already drew its commit-stall; AEnd
         *  re-executes after the stall without re-drawing. */
        bool commitStalled = false;

        Frame &top() { return stack[depth - 1]; }
    };

    /** Thrown internally to unwind to the abort handler. */
    struct RegionAbort
    {
        AbortCause cause;
        int abortId = -1;
    };

    void initCtx(Ctx &ctx);

    /**
     * Run `ctx` for one scheduler quantum: HwConfig::quantum steps,
     * fewer when it blocks on a monitor or returns from its last
     * frame. A step delivers a pending conflict abort, burns one
     * stall step, or retries a blocked monitor and then executes one
     * uop, followed by the timer and the injected interrupt. The
     * current frame's code, registers, last writers and pc live in
     * locals, reloaded only after a uop that changes the frame (call,
     * return, abort). The uncommon uops below run out of line.
     */
    void runQuantum(Ctx &ctx);

    /** CallDirect/CallIndirect: save `next_pc` as the continuation
     *  and push the callee's frame. The call's trace entry `t` is
     *  the producer of the callee's argument registers. */
    void call(Ctx &ctx, const MUop &uop, TraceUop &t, int next_pc);
    /** Ret: pop the frame (the context finishes on its last) and
     *  write the caller's destination register, produced by the
     *  return's trace entry `seq`. */
    void ret(Ctx &ctx, const MUop &uop, uint64_t seq);
    /** LockSlow; false when the monitor is held by another context
     *  (the context blocks at this uop). */
    bool monitorEnter(Ctx &ctx, const MUop &uop, TraceUop &t);
    void monitorExit(Ctx &ctx, const MUop &uop, TraceUop &t);
    /** Alloc; returns the new object's or array's address. */
    uint64_t allocate(Ctx &ctx, const MUop &uop, TraceUop &t);
    void crossMarker(Ctx &ctx, const MUop &uop);
    void spawn(Ctx &ctx, const MUop &uop);
    /** ABegin: checkpoint the registers and open region `uop.aux`. */
    void beginRegion(Ctx &ctx, const MUop &uop);
    /** The failpoints of an AEnd; true when an injected commit stall
     *  holds the region open (the AEnd re-executes after it). */
    bool injectAtCommit(Ctx &ctx);

    void invoke(Ctx &ctx, vm::MethodId callee, const int64_t *argv,
                size_t argc, MReg ret_dst, uint64_t call_seq);
    /**
     * Abort the open region of `ctx` (the hardware side of
     * `aregion_abort` and of every implicit abort; paper Section
     * 3.2): restore the register checkpoint, discard the store
     * buffer and read/write sets, redirect to the region's
     * alternate pc, and record the cause in the diagnosis
     * registers (RegionRuntime::abortsByCause and the
     * `machine.abort.*` telemetry counters).
     *
     * @param cause      hardware cause register value
     * @param abort_id   software abort code (assert id) for
     *                   AbortCause::Explicit, -1 otherwise
     * @param resolve_pc global pc of the aborting instruction
     */
    void doAbort(Ctx &ctx, AbortCause cause, int abort_id,
                 uint64_t resolve_pc);

    /**
     * Commit the open region of `ctx` (the hardware side of
     * `aregion_end`; paper Section 3.1 "flash commit"): drain the
     * store buffer to the heap atomically, publish conflicts to
     * concurrently speculating contexts, and record the dynamic
     * size and cache-footprint statistics.
     */
    void commitRegion(Ctx &ctx);

    /** Mirror MachineResult into the process-wide telemetry
     *  registry (called once at the end of run()). */
    void publishTelemetry();

    int64_t memRead(Ctx &ctx, uint64_t addr);
    void memWrite(Ctx &ctx, uint64_t addr, int64_t value);
    void trackSpecLine(Ctx &ctx, uint64_t line);
    void signalConflicts(Ctx &writer_ctx, uint64_t line);

    uint64_t checkRef(Ctx &ctx, int64_t value, const MUop &uop);
    void raiseTrap(Ctx &ctx, vm::TrapKind kind, const MUop &uop);

    static uint64_t
    lineOf(uint64_t addr)
    {
        return addr / HwConfig::lineWords;
    }

    uint64_t
    setOf(uint64_t line) const
    {
        return setsArePow2 ? line & setMask : line % numSetsU;
    }

    /** Append to the trace batch; flushes when the ring fills. The
     *  per-uop entry is built in a local (register-allocated) struct
     *  and copied in here once complete — an in-place emplace was
     *  measured slower because the indirection blocks scalar
     *  replacement of the entry's fields. */
    void
    pushTrace(const TraceUop &t)
    {
        batch.push_back(t);
        if (batch.size() >= BATCH_CAP)
            flushTrace();
    }

    /** Hand the buffered uops to the sink in one uopBatch call. */
    void flushTrace();

    const MachineProgram &mp;
    HwConfig config;
    TraceSink *sink;
    RollbackOracle *oracle = nullptr;
    BisimOracle *bisim = nullptr;
    ContentionControl *contention = nullptr;

    /** An armed failpoint with this run's own hit count, so what a
     *  run injects depends on nothing else the process runs. */
    struct Injection
    {
        const failpoint::Failpoint *point = nullptr;
        uint64_t hits = 0;

        explicit operator bool() const { return point != nullptr; }
        /** Count one hit; true when the failpoint fires on it. */
        bool fire();
        int64_t value() const;
    };

    /** Failpoint handles, resolved once per run() so the armed case
     *  costs a pointer test per hook and the unarmed case costs the
     *  single `injectOn` branch (support/failpoint.hh). */
    bool injectOn = false;
    Injection fpInterrupt;
    Injection fpCapacity;
    Injection fpAssert;
    Injection fpConflict;
    Injection fpCommitStall;
    Injection fpDivergence;

    vm::Heap heapImpl;
    std::vector<Ctx> ctxs;
    MachineResult result;
    uint64_t tracedSeq = 0;         ///< trace sequence for context 0
    uint64_t interruptCountdown = 0;

    /** HwConfig-derived constants, computed once at construction. */
    bool setsArePow2 = false;
    uint64_t setMask = 0;
    uint64_t numSetsU = 1;
    size_t lineTableCap = 2;

    static constexpr size_t BATCH_CAP = 256;
    std::vector<TraceUop> batch;
    uint64_t batchFlushes = 0;
    uint64_t batchUops = 0;

    /** Per-run commit-footprint histograms, accumulated locally and
     *  merged into the registry at publishTelemetry so concurrent
     *  machines (support/parallel.hh) never race. */
    aregion::Histogram readLinesLocal;
    aregion::Histogram writeLinesLocal;
};

} // namespace aregion::hw

#endif // AREGION_HW_MACHINE_HH

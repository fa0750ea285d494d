/**
 * @file
 * Dynamic uop trace: the interface between the functional machine
 * simulator (producer) and the timing model (consumer).
 *
 * Each executed uop of the traced hardware context becomes one
 * TraceUop carrying its data dependences (producer sequence numbers),
 * memory address, branch outcome, and region events. Aborted regions'
 * uops are streamed as they execute (they occupy the pipeline) and
 * reconciled by the AbortEvent that follows. The aborting uop itself
 * is not streamed: the AbortEvent stands in for it.
 *
 * Sequence contract. Numbers strictly increase in delivery order, and
 * some are skipped: a uop that aborts (a firing assert, an overflowing
 * access, a conflict at commit) or does not complete (a blocked
 * monitor enter, a held commit) takes a number and is never delivered.
 * `srcSeq` names the producer's number, so a consumer ages its
 * producers against its own number, never against a count of uops
 * delivered.
 */

#ifndef AREGION_HW_TRACE_HH
#define AREGION_HW_TRACE_HH

#include <cstddef>
#include <cstdint>

namespace aregion::hw {

/** Latency/issue class of a uop. */
enum class LatClass : uint8_t {
    Int,        ///< 1-cycle ALU
    Mul,        ///< 3-cycle multiply
    Div,        ///< 20-cycle divide
    Load,
    Store,
    Branch,
    Serial,     ///< serializing (CAS, slow locks)
};

/**
 * Why a region aborted — the abort cause register of the paper's
 * Section 3.2, which software reads after rollback to distinguish
 * "my assert fired" (recompile the cold branch, Section 7) from
 * environmental aborts that merely retry. Order is load-bearing:
 * `RegionRuntime::abortsByCause` and the telemetry keys
 * `machine.abort.*` (telemetry_keys.hh, kMachineAbortByCause) index
 * by `static_cast<int>(cause)`.
 */
enum class AbortCause : uint8_t {
    Explicit,   ///< aregion_abort (a compiler assert fired, §4.1)
    Conflict,   ///< coherence conflict with another context (SLE, §5.2)
    Overflow,   ///< speculative footprint exceeded the L1 way limit (§3.1)
    Interrupt,  ///< timer interrupt while speculative (§3.2)
    Exception,  ///< trap or blocking operation while speculative
    Io,         ///< irrevocable operation reached speculatively
};

/** Number of AbortCause enumerators. Arrays indexed by cause
 *  (RegionRuntime::abortsByCause, kMachineAbortByCause) size
 *  themselves from this so a new cause can't silently truncate
 *  stats — machine.cc static_asserts the telemetry side. */
inline constexpr size_t kNumAbortCauses =
    static_cast<size_t>(AbortCause::Io) + 1;

const char *abortCauseName(AbortCause cause);

/** Region lifecycle markers attached to trace uops. */
enum class RegionEvent : uint8_t { None, Begin, End };

/** One executed uop of the traced context. Field order and widths
 *  keep the struct at 64 bytes, and the alignment pins batch entries
 *  to cache-line boundaries (exactly one line per uop): the machine
 *  copies one per traced uop into its batch ring, and the timing
 *  model reads them back out. */
struct alignas(64) TraceUop
{
    uint64_t seq = 0;           ///< 1-based, increasing, with gaps
    uint64_t memAddr = 0;       ///< word address for loads/stores

    /** Producer seqs of the register sources (0 = no producer). */
    uint64_t srcSeq[3] = {0, 0, 0};

    /** Global pcs are `method << 16 | offset` (hw/isa.hh) with both
     *  halves under 2^16 — see the method-count check in the Machine
     *  constructor — so 32 bits hold them exactly. */
    uint32_t pc = 0;
    uint32_t targetPc = 0;      ///< branch/indirect actual target

    LatClass lat = LatClass::Int;
    bool isLoad = false;
    bool isStore = false;
    bool isBranch = false;      ///< conditional branch
    bool taken = false;
    bool indirect = false;      ///< indirect call (target prediction)
    bool serializing = false;
    int8_t numSrcs = 0;

    RegionEvent region = RegionEvent::None;
    int16_t regionId = -1;
};
static_assert(sizeof(TraceUop) == 64,
              "TraceUop should stay one cache line");

/** Emitted when the traced context's region aborts. */
struct AbortEvent
{
    AbortCause cause;
    uint64_t discardedUops;     ///< uops since the aregion_begin
    uint64_t resolvePc;         ///< pc of the aborting instruction
};

/** Consumer interface (the timing model; tests use mock sinks). */
class TraceSink
{
  public:
    virtual ~TraceSink() = default;
    virtual void uop(const TraceUop &u) = 0;

    /** Contiguous run of uops in program order. The machine batches
     *  trace delivery through this hook so the per-uop virtual call
     *  disappears from the hot loop; sinks that care only about
     *  individual uops inherit this per-uop fallback. Ordering
     *  contract: a batch is flushed before every abortFlush() and
     *  marker() call, so relative order with those events is
     *  preserved exactly as if uop() had been called n times. */
    virtual void uopBatch(const TraceUop *u, size_t n)
    {
        for (size_t i = 0; i < n; ++i)
            uop(u[i]);
    }

    virtual void abortFlush(const AbortEvent &event) { (void)event; }
    virtual void marker(int64_t id) { (void)id; }
};

} // namespace aregion::hw

#endif // AREGION_HW_TRACE_HH

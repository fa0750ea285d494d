/**
 * @file
 * Deopt bisimulation oracle.
 *
 * The paper's contract is stronger than "the abort restored the
 * checkpoint": an abort must be *indistinguishable from having
 * executed the region's non-speculative alternate path* — the
 * bisimulation reading of Flückiger et al.'s "abort ≡ non-speculative
 * replay" invariant (PAPERS.md). The RollbackOracle (hw/oracle.hh)
 * checks state equality at the abort point; this oracle checks the
 * behavioural claim end to end.
 *
 * On every abort the machine hands over the aregion_begin checkpoint
 * (register file + alternate pc) and the post-abort state (register
 * file + resumed pc). The oracle then re-executes the alternate path
 * *non-speculatively* from both states with its own MUop replayer —
 * independent of Machine::runQuantum, so a machine bug cannot hide
 * in the oracle — over copy-on-write views of the abort-time heap, up to
 * a bounded horizon (uop budget, frame return, next region entry,
 * trap, blocking monitor, spawn). The two replays must produce
 * identical observable traces:
 *
 *   - every heap effect (stores, in order, address and value),
 *   - every I/O effect (prints, markers) and allocation,
 *   - monitor state transitions (lock-word stores),
 *   - trap identity (kind, originating bytecode method, pc),
 *   - the stop condition, final pc, final register file, and the
 *     allocation watermark.
 *
 * Register-file equality at the horizon subsumes the "dead register"
 * loophole: a rollback bug that corrupts a register the alternate
 * path never reads is still observable state (a later region entry
 * would checkpoint it), so it is still flagged.
 *
 * Cross-context soundness: the machine multiplexes contexts on one
 * host thread, so the heap at the abort instant is a consistent
 * snapshot; both replays read that frozen image through private
 * overlays and never write the real heap. This is what lets the
 * bisimulation check run on cross-context (conflict) aborts where
 * the RollbackOracle must skip its heap comparison.
 *
 * Attach with Machine::setBisimOracle (tests/fuzzing only; nullptr
 * and fully inert by default). Failures are stamped with
 * setReplayInfo coordinates exactly like the RollbackOracle's.
 */

#ifndef AREGION_HW_BISIM_HH
#define AREGION_HW_BISIM_HH

#include <cstdint>
#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

#include "hw/isa.hh"
#include "hw/oracle.hh"
#include "hw/trace.hh"
#include "vm/heap.hh"
#include "vm/trap.hh"

namespace aregion::hw {

class BisimOracle
{
  public:
    explicit BisimOracle(const MachineProgram &program) : mp(program) {}

    /**
     * Bisimulate one abort. `checkpoint_regs`/`alt_pc` are the
     * aregion_begin checkpoint; `post_regs`/`post_pc` are the frame's
     * state after the machine's abort handler ran. Both pcs are
     * offsets into `method`'s code. Records a Divergence for any
     * observable difference between the two replays.
     */
    void checkAbort(int ctx_id, int method,
                    const std::vector<int64_t> &checkpoint_regs,
                    int alt_pc,
                    const std::vector<int64_t> &post_regs, int post_pc,
                    const vm::Heap &heap, AbortCause cause);

    /** Stamp subsequent divergences with reproduction coordinates
     *  (same contract as RollbackOracle::setReplayInfo). */
    void setReplayInfo(uint64_t seed, std::string command);

    const std::vector<Divergence> &divergences() const
    {
        return found;
    }
    uint64_t checks() const { return checkCount; }
    uint64_t replays() const { return replayCount; }
    uint64_t replayedUops() const { return replayedUopCount; }
    uint64_t suppressedReports() const { return suppressedCount; }

  private:
    /** Why a replay stopped short of (or at) the horizon. */
    enum class Stop : uint8_t {
        Horizon,        ///< uop budget exhausted
        FrameReturn,    ///< Ret executed
        CallBoundary,   ///< Call{Direct,Indirect} reached
        RegionEntry,    ///< next aregion_begin reached
        RegionEnd,      ///< aregion_end without a begin (bad path)
        ExplicitAbort,  ///< aregion_abort on the alternate path
        Trapped,        ///< safety trap raised
        Blocked,        ///< contended monitor (would block)
        BadMonitor,     ///< unlock by non-owner
        Spawned,        ///< spawn (irrevocable external effect)
        WildStore,      ///< out-of-bounds non-speculative store
        BadPc,          ///< pc fell outside the function
    };
    static const char *stopName(Stop stop);

    /** One observable effect of a replay, in program order. */
    struct ObsEvent
    {
        enum class Kind : uint8_t {
            Store,      ///< a = addr, b = value
            Print,      ///< b = value
            Marker,     ///< b = marker id
            Alloc,      ///< a = address, b = words
            WildLoad,   ///< a = addr (read as zero)
        };
        Kind kind;
        uint64_t a = 0;
        int64_t b = 0;

        bool operator==(const ObsEvent &o) const
        {
            return kind == o.kind && a == o.a && b == o.b;
        }
    };

    /** Copy-on-write view of the frozen abort-time heap. */
    struct HeapView
    {
        const vm::Heap &base;
        std::unordered_map<uint64_t, int64_t> writes;
        uint64_t allocPtr;

        explicit HeapView(const vm::Heap &heap)
            : base(heap), allocPtr(heap.allocMark())
        {}

        bool inBounds(uint64_t addr) const;
        int64_t load(uint64_t addr) const;
        void store(uint64_t addr, int64_t value);
        uint64_t alloc(uint64_t words);
    };

    struct ReplayResult
    {
        std::vector<int64_t> regs;
        int pc = 0;
        Stop stop = Stop::Horizon;
        uint64_t uops = 0;
        uint64_t allocPtr = 0;
        std::optional<vm::Trap> trap;
        std::vector<ObsEvent> events;
    };

    ReplayResult replay(int ctx_id, const MachineFunction &fn,
                        std::vector<int64_t> regs, int pc,
                        const vm::Heap &heap);
    void compare(int ctx_id, const MachineFunction &fn,
                 AbortCause cause, const ReplayResult &from_checkpoint,
                 const ReplayResult &from_post_abort);
    void report(int ctx_id, std::string what);

    const MachineProgram &mp;
    std::vector<Divergence> found;
    bool replayValid = false;
    uint64_t replaySeed = 0;
    std::string replayCommand;
    uint64_t checkCount = 0;
    uint64_t replayCount = 0;
    uint64_t replayedUopCount = 0;
    uint64_t suppressedCount = 0;
};

} // namespace aregion::hw

#endif // AREGION_HW_BISIM_HH

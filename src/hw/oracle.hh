/**
 * @file
 * Rollback consistency oracle.
 *
 * Hardware atomicity's core contract (paper Sections 3.1–3.2) is that
 * an abort restores *exact* architectural state: registers revert to
 * the aregion_begin checkpoint, no speculative store reaches memory,
 * and control lands on the region's alternate pc. The machine
 * simulator implements that with snapshots and a store buffer — and
 * this oracle checks it with an independent mechanism, so a bug in
 * the machine's rollback path cannot also hide the evidence.
 *
 * When attached (Machine::setOracle; tests only — nullptr and fully
 * inert in production), the oracle takes its own copy of the
 * architectural state at every aregion_begin:
 *
 *   - the executing frame's register file,
 *   - the region's alternate pc,
 *   - the heap prefix [layout::POISON_WORDS, allocMark) — which
 *     includes object fields, array elements, and monitor lock words.
 *
 * After every abort it re-reads the machine state and records a
 * Divergence for any mismatch: register files differ, the resumed pc
 * is not the alternate pc, or any pre-existing heap word changed.
 * Words allocated *inside* the region are not compared (the machine
 * leaks the bump-pointer advance on abort by design; the words
 * themselves were only ever written speculatively).
 *
 * The per-snapshot heap comparison is only sound when a single
 * hardware context exists for the whole begin..abort window — another
 * context may legitimately commit between the two points. The oracle
 * skips that check (but still checks registers and pc) in that case.
 *
 * Cross-context mode: when the machine calls onRunStart, the oracle
 * additionally maintains a *shadow heap* mirroring every committed
 * store (non-speculative stores and commit drains — the only two
 * paths by which the machine writes the heap). Two multi-context
 * invariants fall out:
 *
 *   - Global consistency: speculative stores live in store buffers
 *     until commit, so the real heap must equal the shadow at every
 *     instruction boundary. The oracle checks the full heap against
 *     the shadow after every conflict abort; a mismatch means a
 *     speculative store leaked or a committed one was lost.
 *
 *   - Commit-order serializability (the multi-context reading of
 *     Flückiger et al.'s "abort ≡ non-speculative replay"): each
 *     region logs the values its speculative reads observed from the
 *     heap (store-buffer hits excluded), and at commit every logged
 *     value must still match the shadow. Then the region reads
 *     exactly the committed state at its commit point, so commit
 *     order itself is a witness serial order. With eager
 *     ownership-style conflict detection this must never fire — any
 *     conflicting commit pends an abort on the reader first.
 */

#ifndef AREGION_HW_ORACLE_HH
#define AREGION_HW_ORACLE_HH

#include <cstdint>
#include <string>
#include <vector>

#include "hw/trace.hh"
#include "vm/heap.hh"

namespace aregion::hw {

/** One observed violation of the rollback contract. */
struct Divergence
{
    int ctxId;
    std::string what;
};

class RollbackOracle
{
  public:
    /**
     * Enable cross-context (shadow heap) checking; the machine calls
     * this at the top of run(), after metadata is laid out but
     * before the first instruction.
     */
    void onRunStart(const vm::Heap &heap);

    /** Snapshot state at aregion_begin of context `ctx_id`. */
    void captureBegin(int ctx_id, size_t num_ctxs,
                      const std::vector<int64_t> &regs, int alt_pc,
                      const vm::Heap &heap);

    /**
     * Cross-check state after the abort handler ran. On a Conflict
     * abort in cross-context mode, the whole heap is additionally
     * compared against the shadow.
     */
    void checkAbort(int ctx_id, size_t num_ctxs,
                    const std::vector<int64_t> &regs, int pc,
                    const vm::Heap &heap,
                    AbortCause cause = AbortCause::Explicit);

    /** A committed (non-speculative) store reached the heap. */
    void onNonSpecStore(uint64_t addr, int64_t value);

    /** A speculative read of `ctx_id` fell through its store buffer
     *  to the heap and observed `value`. */
    void onSpecRead(int ctx_id, uint64_t addr, int64_t value);

    /**
     * Region of `ctx_id` is about to commit (store buffer not yet
     * drained): validate its read log against the shadow heap —
     * the serializability check.
     */
    void checkCommit(int ctx_id, size_t num_ctxs,
                     const vm::Heap &heap);

    /** One store of the commit drain reached the heap. */
    void onCommitStore(uint64_t addr, int64_t value);

    /** The region committed; drop the pending snapshot. */
    void onCommit(int ctx_id);

    /**
     * Stamp every subsequent divergence message with the failure's
     * reproduction coordinates: the harness seed and a one-line
     * command that replays the failing cell.
     */
    void setReplayInfo(uint64_t seed, std::string command);

    const std::vector<Divergence> &divergences() const
    {
        return found;
    }
    uint64_t checks() const { return checkCount; }
    uint64_t heapChecks() const { return heapCheckCount; }
    uint64_t commitChecks() const { return commitCheckCount; }
    uint64_t conflictHeapChecks() const
    {
        return conflictHeapCheckCount;
    }

  private:
    struct Snapshot
    {
        bool valid = false;
        bool heapValid = false;     ///< single-context capture
        int altPc = 0;
        std::vector<int64_t> regs;
        uint64_t allocMark = 0;
        std::vector<int64_t> heapWords;     ///< [POISON, allocMark)
        /** Speculative reads served from the heap (addr, value);
         *  validated against the shadow at commit. */
        std::vector<std::pair<uint64_t, int64_t>> readLog;
        bool readLogOverflow = false;
    };

    Snapshot &slot(int ctx_id);
    void report(int ctx_id, std::string what);
    int64_t shadowAt(uint64_t addr) const;
    void shadowStore(uint64_t addr, int64_t value);

    /** Regions are L1-bounded, so a read log this deep means the
     *  hook wiring broke; give up on the region rather than OOM. */
    static constexpr size_t kReadLogCap = 1u << 16;

    std::vector<Snapshot> snapshots;    ///< indexed by context id
    std::vector<Divergence> found;
    bool shadowActive = false;
    std::vector<int64_t> shadow;        ///< [POISON_WORDS, ...)
    bool replayValid = false;
    uint64_t replaySeed = 0;
    std::string replayCommand;
    uint64_t checkCount = 0;
    uint64_t heapCheckCount = 0;
    uint64_t commitCheckCount = 0;
    uint64_t conflictHeapCheckCount = 0;
};

} // namespace aregion::hw

#endif // AREGION_HW_ORACLE_HH

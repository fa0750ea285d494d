/**
 * @file
 * Trace-driven out-of-order timing model.
 *
 * Consumes the functional simulator's uop trace and models the
 * first-order performance effects the paper measures: issue width,
 * window/ROB occupancy, data-dependence latencies, branch
 * misprediction penalties, serializing operations, the memory
 * hierarchy, and — crucially — the cost of the atomic-region
 * primitives under the three hardware implementations of Figure 9
 * (checkpoint substrate, 20-cycle aregion_begin stall, and
 * single-in-flight regions).
 */

#ifndef AREGION_HW_TIMING_HH
#define AREGION_HW_TIMING_HH

#include <cstddef>
#include <map>
#include <set>
#include <string>
#include <vector>

#include "hw/branch_predictor.hh"
#include "hw/cache.hh"
#include "hw/trace.hh"

namespace aregion::failpoint {
class Failpoint;
} // namespace aregion::failpoint

namespace aregion::hw {

/** Microarchitectural parameters (Table 1 defaults). */
struct TimingConfig
{
    std::string name = "4-wide OOO";

    int width = 4;              ///< rename/issue/retire
    int robSize = 128;          ///< instruction window
    int schedWindow = 64;       ///< scheduling window
    int mispredictPenalty = 20;

    /** Atomic-primitive implementation (Figure 9). */
    enum class RegionImpl { Checkpoint, StallBegin, SingleInflight };
    RegionImpl regionImpl = RegionImpl::Checkpoint;
    int beginStallCycles = 20;

    /** Memory hierarchy (line = 64B = 8 words). */
    int lineWords = 8;
    int l1Lines = 512;          ///< 32 KB
    int l1Assoc = 4;
    int l2Lines = 65536;        ///< 4 MB
    int l2Assoc = 8;
    int l1Latency = 4;
    int l2Latency = 20;
    int memLatency = 400;       ///< 100 ns at 4 GHz
    bool prefetcher = true;

    /**
     * Leakage-observer mode (off by default; Guarnieri et al.'s
     * observation that architecturally-invisible aborted work still
     * leaves microarchitectural traces). When on, the model records
     * the cache-line and branch-predictor footprint of every
     * *discarded* (aborted) region attempt, diffs it against the
     * footprint of the committed replay of the same region, and
     * flags regions whose aborted work touched state the committed
     * path never touches (`timing.leak.*` telemetry,
     * TimingModel::leakReport). Observation only: enabling it never
     * changes a modelled latency, and disabled runs skip every hook
     * behind one dead branch.
     */
    bool leakObserver = false;

    /** Latencies by class. */
    int mulLatency = 3;
    int divLatency = 20;
    int serialLatency = 6;      ///< CAS / locked ops

    /**
     * Initial value for every cycle-state field (testing knob).
     * The model is shift-invariant — no component consumes absolute
     * cycle values — so a run started near 2^32 must reproduce the
     * zero-start run exactly, just offset, while forcing the 32-bit
     * ring offsets through rebaseRings almost immediately. The
     * stress tests use this to exercise the rebase path; leave at 0
     * otherwise.
     */
    uint64_t startCycle = 0;

    static TimingConfig baseline();            ///< Table 1
    static TimingConfig stallBegin();          ///< Figure 9 middle
    static TimingConfig singleInflight();      ///< Figure 9 right
    static TimingConfig twoWide();             ///< Section 6.3
    static TimingConfig twoWideHalf();         ///< Section 6.3

    bool operator==(const TimingConfig &) const = default;
};

/** The model; plug it into a Machine as the TraceSink. */
class TimingModel : public TraceSink
{
  public:
    explicit TimingModel(const TimingConfig &config);

    void uop(const TraceUop &u) override { processUop(u); }

    /** Batched delivery: one virtual dispatch per machine flush, a
     *  plain loop over the non-virtual per-uop model inside. */
    void uopBatch(const TraceUop *u, size_t n) override
    {
        for (size_t i = 0; i < n; ++i)
            processUop(u[i]);
    }

    void abortFlush(const AbortEvent &event) override;
    void marker(int64_t id) override;

    /** Total cycles to retire everything seen so far. */
    uint64_t cycles() const { return lastRetire; }

    uint64_t uopCount = 0;
    uint64_t branches = 0;
    uint64_t mispredicts = 0;
    /** Correctly-predicted branches flipped to mispredicts by the
     *  timing.mispredict failpoint (not included in `mispredicts`). */
    uint64_t injectedMispredicts = 0;
    uint64_t indirects = 0;
    uint64_t indirectMispredicts = 0;
    uint64_t serializations = 0;
    uint64_t regionBegins = 0;
    uint64_t abortFlushes = 0;

    /** Dispatch-stall attribution: uops whose dispatch was delayed,
     *  bucketed by the dominant gate (`timing.stall.*` keys). */
    uint64_t stallRob = 0;          ///< ROB occupancy
    uint64_t stallSched = 0;        ///< scheduling-window distance
    uint64_t stallFetch = 0;        ///< mispredict/abort redirect
    uint64_t stallSerial = 0;       ///< serialization / store drain
    uint64_t stallRegion = 0;       ///< degraded aregion_begin impls

    /** Times rebaseRings ran (ring-offset origin advanced). */
    uint64_t ringRebases = 0;

    /** Mirror the model's counters into the process-wide telemetry
     *  registry (`timing.*` keys). Call once per finished run. */
    void publishTelemetry() const;

    uint64_t l1Misses() const { return caches.l1Misses(); }
    uint64_t l2Misses() const { return caches.l2Misses(); }

    /** Cycle counter value at each marker crossing. */
    std::vector<std::pair<int64_t, uint64_t>> markerCycles;

    /** Leakage verdict for one static region (leakObserver mode). */
    struct RegionLeak
    {
        int regionId = -1;
        uint64_t abortedAttempts = 0;
        /** Cache lines / predictor entries touched by discarded
         *  uops but by no committed execution of the region — the
         *  input-dependent residue an observer could probe. */
        std::vector<uint64_t> leakedLines;
        std::vector<size_t> leakedBranchEntries;

        bool leaky() const
        {
            return !leakedLines.empty() ||
                   !leakedBranchEntries.empty();
        }
    };

    /** Diff every aborted region's discarded footprint against its
     *  committed footprint (leakObserver mode; empty otherwise).
     *  Sorted by region id. */
    std::vector<RegionLeak> leakReport() const;

  private:
    void processUop(const TraceUop &u);
    uint64_t historyComplete(uint64_t seq) const;

    /** Advance ringBase so `anchor - ringBase` fits in 32 bits,
     *  shifting every stored ring offset to the new origin. */
    void rebaseRings(uint64_t anchor);

    TimingConfig cfg;
    BranchPredictor predictor;
    CacheHierarchy caches;

    /** timing.mispredict failpoint handle, resolved at construction;
     *  nullptr (one dead branch per conditional branch) when unarmed. */
    failpoint::Failpoint *fpMispredict = nullptr;

    static constexpr size_t HIST = 8192;
    /** Completion/retire cycles of the last HIST uops, stored as
     *  32-bit offsets from ringBase so both rings together occupy
     *  64 KB of host memory instead of 128 KB — the dependence-wakeup
     *  lookups into completeRing are the model's hottest random
     *  memory traffic. ringBase is rebased roughly every 2^31 cycles
     *  (rebaseRings), which keeps live offsets exact: values still
     *  reachable by any read sit within a few million cycles of the
     *  current dispatch cycle, while the origin trails it by 2^31. */
    std::vector<uint32_t> completeRing;     ///< seq % HIST -> cycle
    std::vector<uint32_t> retireRing;       ///< seq % HIST -> cycle
    uint64_t ringBase = 0;

    uint64_t dispatchCycle = 0;
    int dispatchedInCycle = 0;
    uint64_t retireCycle = 0;
    int retiredInCycle = 0;
    uint64_t fetchResumeAt = 0;
    uint64_t serialGate = 0;
    uint64_t maxComplete = 0;
    uint64_t maxStoreComplete = 0;
    uint64_t lastUopComplete = 0;
    uint64_t lastRetire = 0;
    uint64_t lastRegionEndRetire = 0;
    bool regionOpen = false;

    /** Leakage-observer state (dead unless cfg.leakObserver). A
     *  footprint is the set of cache lines and gshare entries an
     *  execution touched. The attempt footprint accumulates while a
     *  region is open; End folds it into the region's committed
     *  footprint, abortFlush into its discarded footprint and opens
     *  a replay window: the next `discardedUops` uops outside any
     *  region are the non-speculative alternate path re-doing the
     *  aborted work, i.e. the committed replay to diff against. */
    struct LeakFootprint
    {
        std::set<uint64_t> lines;
        std::set<size_t> branchEntries;

        void
        merge(const LeakFootprint &o)
        {
            lines.insert(o.lines.begin(), o.lines.end());
            branchEntries.insert(o.branchEntries.begin(),
                                 o.branchEntries.end());
        }
    };
    void leakObserve(const TraceUop &u);

    bool leakOn = false;
    int curRegionId = -1;
    LeakFootprint attemptFp;
    std::map<int, LeakFootprint> discardedFp;
    std::map<int, LeakFootprint> committedFp;
    std::map<int, uint64_t> abortedAttempts;
    int replayRegion = -1;
    uint64_t replayRemaining = 0;
};

} // namespace aregion::hw

#endif // AREGION_HW_TIMING_HH

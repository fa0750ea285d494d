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
#include <string>
#include <vector>

#include "hw/branch_predictor.hh"
#include "hw/cache.hh"
#include "hw/trace.hh"

namespace aregion::hw {

/** Microarchitectural parameters (Table 1 defaults). */
struct TimingConfig
{
    std::string name = "4-wide OOO";

    int width = 4;              ///< rename/issue/retire
    int robSize = 128;          ///< instruction window
    int schedWindow = 64;       ///< scheduling window
    static constexpr int mispredictPenalty = 20;

    /** Atomic-primitive implementation (Figure 9). */
    enum class RegionImpl { Checkpoint, StallBegin, SingleInflight };
    RegionImpl regionImpl = RegionImpl::Checkpoint;

    /** Memory hierarchy (line = 64B = 8 words). Only the sizes vary
     *  (Section 6.3's half machine); Table 1 prints the rest. */
    int l1Lines = 512;          ///< 32 KB
    static constexpr int l1Assoc = 4;
    int l2Lines = 65536;        ///< 4 MB
    static constexpr int l2Assoc = 8;
    static constexpr int l1Latency = 4;
    static constexpr int l2Latency = 20;
    static constexpr int memLatency = 400;     ///< 100 ns at 4 GHz
    bool prefetcher = true;

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

  private:
    void processUop(const TraceUop &u);
    uint64_t historyComplete(uint64_t seq) const;

    /** Advance ringBase so `anchor - ringBase` fits in 32 bits,
     *  shifting every stored ring offset to the new origin. */
    void rebaseRings(uint64_t anchor);

    TimingConfig cfg;
    BranchPredictor predictor;
    CacheHierarchy caches;

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
};

} // namespace aregion::hw

#endif // AREGION_HW_TIMING_HH

#include "hw/timing.hh"

#include <algorithm>

#include "support/logging.hh"
#include "support/telemetry.hh"
#include "support/telemetry_keys.hh"

namespace aregion::hw {

namespace {

/** Latencies no TimingConfig varies, in cycles. */
constexpr uint64_t kBeginStallCycles = 20;  ///< Figure 9's stalled begin
constexpr uint64_t kMulLatency = 3;
constexpr uint64_t kDivLatency = 20;
constexpr uint64_t kSerialLatency = 6;      ///< CAS / locked ops

} // namespace

TimingConfig
TimingConfig::baseline()
{
    return {};
}

TimingConfig
TimingConfig::stallBegin()
{
    TimingConfig cfg;
    cfg.name = "chkpt + 20-cycle overhead";
    cfg.regionImpl = RegionImpl::StallBegin;
    return cfg;
}

TimingConfig
TimingConfig::singleInflight()
{
    TimingConfig cfg;
    cfg.name = "chkpt, single-inflight";
    cfg.regionImpl = RegionImpl::SingleInflight;
    return cfg;
}

TimingConfig
TimingConfig::twoWide()
{
    TimingConfig cfg;
    cfg.name = "2-wide OOO";
    cfg.width = 2;
    return cfg;
}

TimingConfig
TimingConfig::twoWideHalf()
{
    TimingConfig cfg;
    cfg.name = "2-wide half OOO";
    cfg.width = 2;
    cfg.robSize = 64;
    cfg.schedWindow = 32;
    cfg.l1Lines = 256;          // 16 KB
    cfg.l2Lines = 32768;        // 2 MB
    return cfg;
}

TimingModel::TimingModel(const TimingConfig &config)
    : cfg(config),
      caches(config.l1Lines, config.l2Lines)
{
    AREGION_ASSERT(static_cast<size_t>(cfg.robSize) < kHistory &&
                       static_cast<size_t>(cfg.schedWindow) < kHistory,
                   "robSize ", cfg.robSize, " and schedWindow ",
                   cfg.schedWindow, " must be below ", kHistory);
}

uint64_t
TimingModel::historyComplete(uint64_t seq, uint64_t consumer) const
{
    // Age by the consumer's own number: numbers skip (trace.hh), so a
    // count of delivered uops lags it and would read slots that newer
    // uops have overwritten.
    if (seq == 0 || seq + kHistory <= consumer)
        return 0;   // ancient producer: long since complete
    return completeRing[seq % kHistory];
}

void
TimingModel::processUop(const TraceUop &u)
{
    ++uopCount;

    // --- Dispatch -------------------------------------------------
    // Each gate that raises the dispatch cycle is a stall candidate;
    // the *last* gate to raise `d` dominated and gets the blame
    // (telemetry `timing.stall.*`). Keep the gates as branches: a
    // conditional-move rewrite was measured ~10% slower end to end —
    // the host predicts these branches well, and cmovs chain every
    // gate into `d`'s serial dependency path.
    uint64_t d = dispatchCycle;
    uint64_t *blame = nullptr;
    auto gate = [&](uint64_t at, uint64_t &bucket) {
        if (at > d) {
            d = at;
            blame = &bucket;
        }
    };
    // ROB occupancy: wait for the uop robSize back to retire.
    if (u.seq > static_cast<uint64_t>(cfg.robSize)) {
        gate(retireRing[(u.seq - static_cast<uint64_t>(cfg.robSize)) %
                        kHistory],
             stallRob);
    }
    // Scheduling window: bounded distance past incomplete uops.
    if (u.seq > static_cast<uint64_t>(cfg.schedWindow)) {
        gate(completeRing[(u.seq - static_cast<uint64_t>(
                 cfg.schedWindow)) % kHistory],
             stallSched);
    }
    gate(fetchResumeAt, stallFetch);
    // A pending locked operation gates later memory operations (the
    // store stream stays ordered); independent ALU work continues.
    if (u.isLoad || u.isStore || u.serializing)
        gate(serialGate, stallSerial);
    if (u.serializing) {
        ++serializations;
        // Locked operations drain the store stream (prior stores and
        // serializing ops), not the whole instruction window.
        gate(maxStoreComplete, stallSerial);
    }
    if (u.region == RegionEvent::Begin) {
        ++regionBegins;
        switch (cfg.regionImpl) {
          case TimingConfig::RegionImpl::Checkpoint:
            break;    // rename-table checkpoint: free
          case TimingConfig::RegionImpl::StallBegin:
            d += kBeginStallCycles;
            blame = &stallRegion;
            break;
          case TimingConfig::RegionImpl::SingleInflight:
            gate(lastRegionEndRetire, stallRegion);
            break;
        }
    }
    if (blame)
        ++*blame;
    // Width-limited dispatch.
    if (d > dispatchCycle) {
        dispatchCycle = d;
        dispatchedInCycle = 0;
    }
    if (++dispatchedInCycle > cfg.width) {
        ++dispatchCycle;
        dispatchedInCycle = 1;
        d = dispatchCycle;
    }

    // --- Execute --------------------------------------------------
    uint64_t ready = d;
    for (int i = 0; i < u.numSrcs; ++i)
        ready = std::max(ready, historyComplete(u.srcSeq[i], u.seq));

    uint64_t latency = 1;
    switch (u.lat) {
      case LatClass::Int:
      case LatClass::Branch:
      case LatClass::Store:
        latency = 1;
        break;
      case LatClass::Mul:
        latency = kMulLatency;
        break;
      case LatClass::Div:
        latency = kDivLatency;
        break;
      case LatClass::Load:
        latency = static_cast<uint64_t>(caches.accessLatency(u.memAddr));
        break;
      case LatClass::Serial:
        latency = kSerialLatency;
        if (u.isLoad || u.isStore)
            caches.accessLatency(u.memAddr);
        break;
    }
    if (u.isStore && u.lat == LatClass::Store)
        caches.accessLatency(u.memAddr);

    const uint64_t complete = ready + latency;
    completeRing[u.seq % kHistory] = complete;
    lastUopComplete = complete;
    if (u.isStore || u.serializing)
        maxStoreComplete = std::max(maxStoreComplete, complete);
    if (u.serializing)
        serialGate = std::max(serialGate, complete);

    // --- Branch resolution ----------------------------------------
    if (u.isBranch) {
        ++branches;
        if (predictor.predictTaken(u.pc) != u.taken) {
            ++mispredicts;
            fetchResumeAt = std::max(
                fetchResumeAt,
                complete + static_cast<uint64_t>(
                    cfg.mispredictPenalty));
        }
        predictor.update(u.pc, u.taken);
    } else if (u.indirect) {
        if (predictor.predictTarget(u.pc) != u.targetPc) {
            ++indirectMispredicts;
            fetchResumeAt = std::max(
                fetchResumeAt,
                complete + static_cast<uint64_t>(
                    cfg.mispredictPenalty));
        }
        predictor.updateTarget(u.pc, u.targetPc);
    }

    // --- Retire (in order, width per cycle) -----------------------
    uint64_t r = std::max(complete, lastRetire);
    if (r > retireCycle) {
        retireCycle = r;
        retiredInCycle = 0;
    }
    if (++retiredInCycle > cfg.width) {
        ++retireCycle;
        retiredInCycle = 1;
        r = retireCycle;
    }
    retireRing[u.seq % kHistory] = r;
    lastRetire = std::max(lastRetire, r);

    if (u.region == RegionEvent::End)
        lastRegionEndRetire = r;
}

void
TimingModel::abortFlush(const AbortEvent &)
{
    ++abortFlushes;
    // The pipeline flushes and redirects like a branch mispredict
    // (Section 6.1: early aborts cost little more than a pipeline
    // flush). The aborting instruction itself is never streamed
    // (trace.hh), so the redirect counts from the last uop streamed,
    // the one before it, not from the abort's own resolution.
    // ROADMAP.md's cycle-accounting item owns delivering that uop.
    fetchResumeAt = std::max(
        fetchResumeAt,
        lastUopComplete + static_cast<uint64_t>(
            cfg.mispredictPenalty));
    lastRegionEndRetire =
        std::max(lastRegionEndRetire, lastUopComplete);
}

void
TimingModel::marker(int64_t id)
{
    markerCycles.emplace_back(id, lastRetire);
}

void
TimingModel::publishTelemetry() const
{
    namespace keys = telemetry::keys;
    auto &reg = telemetry::Registry::global();
    reg.add(keys::kTimingCycles, cycles());
    reg.add(keys::kTimingUops, uopCount);
    reg.add(keys::kTimingBranches, branches);
    reg.add(keys::kTimingMispredicts, mispredicts);
    reg.add(keys::kTimingIndirectMispredicts, indirectMispredicts);
    reg.add(keys::kTimingSerializations, serializations);
    reg.add(keys::kTimingRegionBegins, regionBegins);
    reg.add(keys::kTimingAbortFlushes, abortFlushes);
    reg.add(keys::kTimingL1Misses, l1Misses());
    reg.add(keys::kTimingL2Misses, l2Misses());
    reg.add(keys::kTimingStallRob, stallRob);
    reg.add(keys::kTimingStallSched, stallSched);
    reg.add(keys::kTimingStallFetch, stallFetch);
    reg.add(keys::kTimingStallSerial, stallSerial);
    reg.add(keys::kTimingStallRegion, stallRegion);
    // IPC of the cumulative registry totals, so a multi-run bench
    // reports its aggregate throughput.
    const uint64_t total_uops = reg.counterValue(keys::kTimingUops);
    const uint64_t total_cycles =
        reg.counterValue(keys::kTimingCycles);
    if (total_cycles > 0) {
        reg.set(keys::kTimingIpc,
                static_cast<double>(total_uops) /
                    static_cast<double>(total_cycles));
    }
}

} // namespace aregion::hw

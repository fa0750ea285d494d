/**
 * @file
 * Shared pipeline for the golden-value regression net: runs one
 * workload through the profile -> compile -> functional-machine
 * pipeline and condenses the results into a small comparable row.
 * The machine runs twice: once with no sink (the architectural
 * results) and once with the Table 1 timing model behind a
 * TraceDigestSink (the traced uop stream and its cycle count). Used by
 * tests/hw_machine_golden_test.cc (compares against checked-in
 * values), tests/hw_machine_test.cc (compares scheduler quanta) and
 * tools/golden_gen (prints a fresh table to paste after an
 * *intentional* behaviour change).
 */

#ifndef AREGION_TESTS_GOLDEN_HARNESS_HH
#define AREGION_TESTS_GOLDEN_HARNESS_HH

#include <cstdint>
#include <ostream>
#include <string>

#include "core/compiler.hh"
#include "hw/codegen.hh"
#include "hw/machine.hh"
#include "hw/timing.hh"
#include "support/fnv.hh"
#include "vm/interpreter.hh"
#include "workloads/workload.hh"

namespace aregion::test {

/** Condensed results of one workload run. */
struct GoldenRow
{
    std::string workload;
    uint64_t outputChecksum = 0;    ///< MachineResult::outputChecksum
    uint64_t interpChecksum = 0;    ///< interpreter's output, same hash
    uint64_t retiredUops = 0;
    uint64_t regionEntries = 0;
    uint64_t regionCommits = 0;
    uint64_t regionAborts = 0;
    /** FNV-1a over every static region's (method, regionId, entries,
     *  commits, abortsByCause[0..5]) tuple, in map order. */
    uint64_t regionFingerprint = 0;
    /** TraceDigestSink::digest() of the traced run. */
    uint64_t traceDigest = 0;
    /** TimingModel::cycles() of the traced run. */
    uint64_t cycles = 0;

    bool operator==(const GoldenRow &) const = default;
};

/** gtest printer: every field, by name. */
inline void
PrintTo(const GoldenRow &row, std::ostream *os)
{
    *os << row.workload << std::hex << " {output 0x" << row.outputChecksum
        << ", interp 0x" << row.interpChecksum << std::dec
        << ", retired " << row.retiredUops << ", entries "
        << row.regionEntries << ", commits " << row.regionCommits
        << ", aborts " << row.regionAborts << std::hex
        << ", fingerprint 0x" << row.regionFingerprint << ", trace 0x"
        << row.traceDigest << std::dec << ", cycles " << row.cycles
        << "}";
}

/**
 * A sink that forwards every event to another sink and folds it,
 * in delivery order, into one FNV-1a digest: each batch's size and
 * every field of every uop in it, each abortFlush's cause, discarded
 * uops and resolve pc, and each marker id. Equal digests mean the
 * machine delivered the same uops (sequence numbers, producers, pcs,
 * flags, region events) in the same batches, interleaved the same
 * way with aborts and markers.
 */
class TraceDigestSink : public hw::TraceSink
{
  public:
    explicit TraceDigestSink(hw::TraceSink &next_) : next(next_) {}

    void uop(const hw::TraceUop &u) override { uopBatch(&u, 1); }

    void
    uopBatch(const hw::TraceUop *u, size_t n) override
    {
        h = fnvWord(fnvWord(h, kBatch), n);
        for (size_t i = 0; i < n; ++i) {
            const hw::TraceUop &t = u[i];
            h = fnvWord(h, t.seq);
            h = fnvWord(h, t.memAddr);
            for (uint64_t src : t.srcSeq)
                h = fnvWord(h, src);
            h = fnvWord(h, uint64_t{t.pc} << 32 | t.targetPc);
            h = fnvWord(
                h, uint64_t{static_cast<uint8_t>(t.lat)} |
                       uint64_t{t.isLoad} << 8 |
                       uint64_t{t.isStore} << 9 |
                       uint64_t{t.isBranch} << 10 |
                       uint64_t{t.taken} << 11 |
                       uint64_t{t.indirect} << 12 |
                       uint64_t{t.serializing} << 13 |
                       uint64_t{static_cast<uint8_t>(t.numSrcs)} << 16 |
                       uint64_t{static_cast<uint8_t>(t.region)} << 24 |
                       uint64_t{static_cast<uint16_t>(t.regionId)}
                           << 32);
        }
        next.uopBatch(u, n);
    }

    void
    abortFlush(const hw::AbortEvent &event) override
    {
        h = fnvWord(h, kAbort);
        h = fnvWord(h, static_cast<uint64_t>(event.cause));
        h = fnvWord(h, event.discardedUops);
        h = fnvWord(h, event.resolvePc);
        next.abortFlush(event);
    }

    void
    marker(int64_t id) override
    {
        h = fnvWord(fnvWord(h, kMarker), static_cast<uint64_t>(id));
        next.marker(id);
    }

    uint64_t digest() const { return h; }

  private:
    static constexpr uint64_t kBatch = 1, kAbort = 2, kMarker = 3;

    hw::TraceSink &next;
    uint64_t h = 1469598103934665603ULL;
};

/**
 * One workload as the golden net compiles it: profiled on the
 * profiling input, the measurement input compiled with
 * atomic+aggressive-inline and lowered to machine code. The
 * interpreter runs the measurement input once, as an independent
 * cross-check of the machine's output stream.
 */
class GoldenPipeline
{
  public:
    explicit GoldenPipeline(const workloads::Workload &w)
        : name(w.name), measure(w.build(false))
    {
        const vm::Program profile_prog = w.build(true);
        vm::Profile profile(profile_prog);
        {
            vm::Interpreter interp(profile_prog, &profile);
            interp.run();
        }
        const core::Compiled compiled = core::compileProgram(
            measure, profile,
            core::CompilerConfig::atomicAggressiveInline());
        vm::Heap layout_heap(measure, 1 << 16);
        mp = hw::lowerModule(compiled.mod,
                             hw::LayoutInfo::fromHeap(layout_heap));

        vm::Interpreter interp(measure);
        interp.run();
        interpChecksum = interp.outputChecksum();
    }

    /** The MachineProgram points into `measure`, so the pipeline
     *  stays where it was built. */
    GoldenPipeline(const GoldenPipeline &) = delete;
    GoldenPipeline &operator=(const GoldenPipeline &) = delete;

    const hw::MachineProgram &program() const { return mp; }

    /** Run the machine under `config`, untraced and then traced. */
    GoldenRow
    run(const hw::HwConfig &config = {}) const
    {
        hw::Machine machine(mp, config);
        const hw::MachineResult res = machine.run();

        GoldenRow row;
        row.workload = name;
        row.outputChecksum = res.outputChecksum();
        row.interpChecksum = interpChecksum;
        row.retiredUops = res.retiredUops;
        row.regionEntries = res.regionEntries;
        row.regionCommits = res.regionCommits;
        row.regionAborts = res.regionAborts;
        uint64_t h = 1469598103934665603ULL;
        for (const auto &[key, stats] : res.regions) {
            h = fnvWord(h, static_cast<uint64_t>(key.first));
            h = fnvWord(h, static_cast<uint64_t>(key.second));
            h = fnvWord(h, stats.entries);
            h = fnvWord(h, stats.commits);
            for (uint64_t c : stats.abortsByCause)
                h = fnvWord(h, c);
        }
        row.regionFingerprint = h;

        hw::TimingModel timing(hw::TimingConfig::baseline());
        TraceDigestSink sink(timing);
        hw::Machine traced(mp, config, &sink);
        traced.run();
        row.traceDigest = sink.digest();
        row.cycles = timing.cycles();
        return row;
    }

  private:
    std::string name;
    vm::Program measure;
    hw::MachineProgram mp;
    uint64_t interpChecksum = 0;
};

/** The golden row of `w` at the default HwConfig. */
inline GoldenRow
runGoldenPipeline(const workloads::Workload &w)
{
    return GoldenPipeline(w).run();
}

} // namespace aregion::test

#endif // AREGION_TESTS_GOLDEN_HARNESS_HH

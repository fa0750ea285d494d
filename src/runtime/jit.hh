/**
 * @file
 * The staged execution pipeline (the paper's Section 5 methodology):
 *
 *   1. first-pass profiling run in the interpreter,
 *   2. profile-driven optimizing compilation (baseline or atomic),
 *   3. machine execution with timing simulation of context 0,
 *   4. optional recompilation on abort feedback (Section 7): one
 *      round that recompiles with the adaptive controller's warm
 *      overrides when it finds a new site, then re-runs stage 3,
 *   5. marker-delimited sample metrics, weighted per phase.
 *
 * Profile and measurement inputs may differ (the profile variant of
 * a workload), reproducing profile-drift effects such as pmd's.
 *
 * Stages 1 and 2 go through a process-wide experiment store: a
 * profile or compile requested a second time is kept, and later
 * requests reuse it instead of re-running the interpreter or the
 * compiler (docs/ARCHITECTURE.md). Results are identical either way.
 */

#ifndef AREGION_RUNTIME_JIT_HH
#define AREGION_RUNTIME_JIT_HH

#include <string>
#include <vector>

#include "core/adaptive.hh"
#include "core/compiler.hh"
#include "hw/codegen.hh"
#include "hw/machine.hh"
#include "hw/timing.hh"
#include "vm/program.hh"

namespace aregion::runtime {

/** Type of ExperimentConfig::resilience, declared at namespace
 *  scope: GCC 12 rejects a static constexpr member whose type is a
 *  nested class with a default member initializer. */
struct ResilienceSwitch
{
    bool enabled = false;
};

/** Everything one experiment run needs. */
struct ExperimentConfig
{
    core::CompilerConfig compiler;
    hw::HwConfig hw;
    hw::TimingConfig timing;

    /** Re-compile once with warm overrides when a region's abort
     *  rate exceeds the adaptive controller's threshold, then
     *  re-run. */
    bool adaptiveRecompile = false;
    /** Section 7's policy, the same in every experiment. */
    static constexpr core::AdaptiveController controller{};

    /** Always off. Only perfbench reads it: its staged copy of this
     *  pipeline rejects a config with it on. The next change to the
     *  benchmark removes it. */
    static constexpr ResilienceSwitch resilience{};

    /** Field by field: the bench grid shares a cell between two
     *  requests only when their configs compare equal. */
    bool operator==(const ExperimentConfig &) const = default;
};

/** Metrics for one marker-delimited sample. */
struct SampleMetrics
{
    int64_t beginMarker = 0;
    int64_t endMarker = 0;
    double weight = 1.0;
    uint64_t cycles = 0;
    uint64_t uops = 0;
};

/** Results of one experiment run. */
struct RunMetrics
{
    bool completed = false;

    uint64_t cycles = 0;            ///< whole traced execution
    uint64_t retiredUops = 0;
    uint64_t executedUops = 0;

    /** Weighted by sample (falls back to whole-run when the workload
     *  defines no samples). */
    double weightedCycles = 0;
    double weightedUops = 0;

    /** Region behaviour (Table 3 ingredients). */
    double coverage = 0;            ///< region uops / retired uops
    int uniqueRegions = 0;
    double avgRegionSize = 0;
    double abortPct = 0;            ///< aborts / region entries
    double abortsPer1kUops = 0;
    uint64_t regionEntries = 0;
    uint64_t regionAborts = 0;

    uint64_t mispredicts = 0;
    uint64_t serializations = 0;
    uint64_t l1Misses = 0;
    uint64_t monitorFastEnters = 0;
    bool recompiled = false;        ///< stage 4 recompiled

    uint64_t outputChecksum = 0;
    std::vector<SampleMetrics> samples;

    hw::MachineResult machine;      ///< full detail for benches
};

/** Sample definition supplied by a workload. */
struct SampleSpec
{
    int64_t beginMarker;
    int64_t endMarker;
    double weight;
};

/**
 * Run the full pipeline.
 *
 * @param profile_prog program used for the profiling run
 * @param measure_prog program measured (usually the same; differs
 *                     for drift workloads)
 * @param samples      marker-delimited samples (may be empty)
 */
RunMetrics runExperiment(const vm::Program &profile_prog,
                         const vm::Program &measure_prog,
                         const ExperimentConfig &config,
                         const std::vector<SampleSpec> &samples = {});

} // namespace aregion::runtime

#endif // AREGION_RUNTIME_JIT_HH

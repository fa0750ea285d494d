#include "runtime/jit.hh"

#include <memory>
#include <mutex>
#include <unordered_map>
#include <unordered_set>

#include "runtime/service/code_cache.hh"
#include "support/logging.hh"
#include "support/telemetry.hh"
#include "support/telemetry_keys.hh"
#include "vm/interpreter.hh"

namespace aregion::runtime {

namespace {

namespace keys = telemetry::keys;

/** Held profiles, program copies and compiles, and remembered
 *  one-time keys; each table is cleared when full. The benchmark's
 *  paper traffic needs 7 profiles, 7 programs, 57 compiles and 64
 *  keys. */
constexpr size_t kStorePrograms = 64;
constexpr size_t kStoreCompiles = 128;
constexpr size_t kStoreSeenKeys = 4096;

/**
 * One held compile. Its ir::Module holds a raw pointer to the program
 * it was compiled from, so the entry keeps the store's copy of that
 * program alive alongside the code: a caller may lower and run the
 * module for as long as it holds the entry, even after the table was
 * cleared.
 */
struct CachedCode
{
    std::shared_ptr<const vm::Program> program;
    core::Compiled compiled;
};

/**
 * The experiment store: a process-wide memo of the two stages of a
 * run that are pure functions of their inputs (docs/ARCHITECTURE.md).
 *
 *  - A profile depends only on the profile program, so it is keyed
 *    by service::hashProgram.
 *  - A compile depends only on (program, profile, config), so it is
 *    keyed by service::cacheKey.
 *
 * Lowering, execution and timing are not memoized: the timing model
 * consumes every uop of an execution.
 *
 * A key is admitted on its second request, so requests that never
 * repeat (a corpus of distinct programs) leave nothing behind. An
 * admitted compile runs against a copy of the program that the store
 * owns and shares among that program's entries, because ir::Module
 * and MachineProgram hold raw pointers to it and the caller's program
 * may be gone by the next hit. Entries are immutable and shared
 * read-only across threads; two concurrent misses on one key both
 * compute, and the second insert replaces the first with identical
 * content.
 */
class ExperimentStore
{
  public:
    static ExperimentStore &
    global()
    {
        static ExperimentStore store;
        return store;
    }

    std::shared_ptr<const vm::Profile>
    profile(const vm::Program &prog)
    {
        auto &registry = telemetry::Registry::global();
        const uint64_t key = service::hashProgram(prog);
        bool admit;
        {
            std::lock_guard<std::mutex> lock(mu);
            const auto it = profiles.find(key);
            if (it != profiles.end()) {
                registry.add(keys::kJitStoreProfileHits, 1);
                registry.counter(keys::kJitProfileUs);
                return it->second;
            }
            admit = secondRequestLocked(key);
        }
        auto fresh = std::make_shared<vm::Profile>(prog);
        {
            telemetry::ScopedTimerUs timer(
                registry.counter(keys::kJitProfileUs));
            vm::Interpreter interp(prog, fresh.get());
            const auto res = interp.run();
            AREGION_ASSERT(res.completed || res.trap.has_value(),
                           "profiling run hit the step budget");
        }
        fresh->publishTelemetry();
        if (admit) {
            std::lock_guard<std::mutex> lock(mu);
            if (profiles.size() >= kStorePrograms)
                profiles.clear();
            profiles.emplace(key, fresh);
        }
        return fresh;
    }

    /** The compiled code, aliased into whatever keeps it alive: a
     *  store entry (with its program) or a private compile. */
    std::shared_ptr<const core::Compiled>
    compile(const vm::Program &prog, const vm::Profile &profile,
            const core::CompilerConfig &config)
    {
        auto &registry = telemetry::Registry::global();
        const uint64_t key = service::cacheKey(prog, profile, config);
        bool admit;
        {
            std::lock_guard<std::mutex> lock(mu);
            const auto it = compiles.find(key);
            if (it != compiles.end()) {
                registry.add(keys::kJitStoreCompileHits, 1);
                registry.counter(keys::kJitCompileUs);
                return {it->second, &it->second->compiled};
            }
            admit = secondRequestLocked(key);
        }
        if (!admit) {
            return std::make_shared<const core::Compiled>(
                core::compileProgram(prog, profile, config));
        }
        auto entry = std::make_shared<CachedCode>();
        entry->program = programCopy(prog);
        entry->compiled =
            core::compileProgram(*entry->program, profile, config);
        {
            std::lock_guard<std::mutex> lock(mu);
            if (compiles.size() >= kStoreCompiles)
                compiles.clear();
            compiles[key] = entry;
        }
        return {entry, &entry->compiled};
    }

  private:
    std::shared_ptr<const vm::Program>
    programCopy(const vm::Program &prog)
    {
        const uint64_t key = service::hashProgram(prog);
        std::lock_guard<std::mutex> lock(mu);
        if (const auto it = programs.find(key); it != programs.end())
            return it->second;
        if (programs.size() >= kStorePrograms)
            programs.clear();
        return programs[key] = std::make_shared<const vm::Program>(prog);
    }

    /** Note a missed request; true when it is the key's second. */
    bool
    secondRequestLocked(uint64_t key)
    {
        if (seen.count(key))
            return true;
        if (seen.size() >= kStoreSeenKeys)
            seen.clear();
        seen.insert(key);
        return false;
    }

    std::mutex mu;      ///< guards every table below
    std::unordered_set<uint64_t> seen;
    std::unordered_map<uint64_t, std::shared_ptr<const vm::Profile>>
        profiles;
    std::unordered_map<uint64_t, std::shared_ptr<const vm::Program>>
        programs;
    std::unordered_map<uint64_t, std::shared_ptr<const CachedCode>>
        compiles;
};

/** hw runtime stats -> core adaptive telemetry. */
core::AbortTelemetry
toTelemetry(const hw::MachineResult &res)
{
    core::AbortTelemetry telemetry;
    for (const auto &[key, stats] : res.regions) {
        core::RegionTelemetry t;
        t.entries = stats.entries;
        t.commits = stats.commits;
        t.abortsByAssert = stats.abortsByAssert;
        t.implicitAborts = stats.totalAborts();
        for (const auto &[id, count] : stats.abortsByAssert)
            t.implicitAborts -= count;
        telemetry[key] = t;
    }
    return telemetry;
}

struct MachineRun
{
    hw::MachineResult result;
    uint64_t cycles = 0;
    uint64_t mispredicts = 0;
    uint64_t serializations = 0;
    uint64_t l1Misses = 0;
    std::vector<std::pair<int64_t, uint64_t>> markerCycles;
};

MachineRun
executeCompiled(const core::Compiled &compiled,
                const vm::Program &measure_prog,
                const ExperimentConfig &config)
{
    telemetry::ScopedTimerUs timer(
        telemetry::Registry::global().counter(
            telemetry::keys::kJitMachineUs));
    vm::Heap layout_heap(measure_prog, 1 << 16);
    const hw::MachineProgram mp = hw::lowerModule(
        compiled.mod, hw::LayoutInfo::fromHeap(layout_heap));
    hw::TimingModel timing(config.timing);
    hw::Machine machine(mp, config.hw, &timing);
    MachineRun run;
    run.result = machine.run();
    timing.publishTelemetry();
    run.cycles = timing.cycles();
    run.mispredicts =
        timing.mispredicts + timing.indirectMispredicts;
    run.serializations = timing.serializations;
    run.l1Misses = timing.l1Misses();
    run.markerCycles = timing.markerCycles;
    return run;
}

} // namespace

RunMetrics
runExperiment(const vm::Program &profile_prog,
              const vm::Program &measure_prog,
              const ExperimentConfig &config,
              const std::vector<SampleSpec> &samples)
{
    auto &registry = telemetry::Registry::global();
    registry.add(keys::kJitRuns, 1);
    // Register the hit counters even when they stay zero so the
    // exported schema is stable.
    registry.counter(keys::kJitStoreProfileHits);
    registry.counter(keys::kJitStoreCompileHits);
    ExperimentStore &store = ExperimentStore::global();

    // Stage 1: first-pass profiling (interpreter), unless the store
    // holds this program's profile.
    const std::shared_ptr<const vm::Profile> profile =
        store.profile(profile_prog);

    // Stage 2: optimizing compilation (compileProgram owns the
    // kJitCompileUs counter), unless the store holds this compile.
    std::shared_ptr<const core::Compiled> compiled =
        store.compile(measure_prog, *profile, config.compiler);

    // Stage 3: machine + timing execution.
    MachineRun run = executeCompiled(*compiled, measure_prog, config);

    // Stage 4: recompilation on abort feedback (Section 7), when the
    // controller finds a new site to keep warm. A region it cannot
    // repair still makes progress: each abort runs the alternate path.
    bool recompiled = false;
    if (config.adaptiveRecompile && run.result.completed) {
        const auto sites = config.controller.computeOverrides(
            compiled->mod, toTelemetry(run.result));
        core::CompilerConfig updated = config.compiler;
        auto &warm = updated.region.warmOverrides;
        const size_t known = warm.size();
        warm.insert(sites.begin(), sites.end());
        if (warm.size() > known) {
            compiled = store.compile(measure_prog, *profile, updated);
            run = executeCompiled(*compiled, measure_prog, config);
            recompiled = true;
            registry.add(keys::kJitRecompiles, 1);
        }
    }
    // Register the recompile counter even when it stays zero so the
    // exported schema is stable.
    registry.counter(keys::kJitRecompiles);

    // Stage 5: metrics.
    RunMetrics metrics;
    metrics.completed = run.result.completed;
    metrics.machine = run.result;
    metrics.recompiled = recompiled;
    metrics.cycles = run.cycles;
    metrics.retiredUops = run.result.retiredUops;
    metrics.executedUops = run.result.executedUops;
    metrics.mispredicts = run.mispredicts;
    metrics.serializations = run.serializations;
    metrics.l1Misses = run.l1Misses;
    metrics.monitorFastEnters = run.result.monitorFastEnters;
    metrics.outputChecksum = run.result.outputChecksum();

    metrics.regionEntries = run.result.regionEntries;
    metrics.regionAborts = run.result.regionAborts;
    if (run.result.retiredUops > 0) {
        metrics.coverage =
            static_cast<double>(run.result.regionUopsRetired) /
            static_cast<double>(run.result.retiredUops);
        metrics.abortsPer1kUops =
            1000.0 * static_cast<double>(run.result.regionAborts) /
            static_cast<double>(run.result.retiredUops);
    }
    if (run.result.regionEntries > 0) {
        metrics.abortPct =
            static_cast<double>(run.result.regionAborts) /
            static_cast<double>(run.result.regionEntries);
    }
    double size_sum = 0;
    uint64_t size_count = 0;
    for (const auto &[key, stats] : run.result.regions) {
        if (stats.entries > 0)
            metrics.uniqueRegions++;
        size_sum += stats.dynamicSize.mean() *
                    static_cast<double>(stats.dynamicSize.count());
        size_count += stats.dynamicSize.count();
    }
    metrics.avgRegionSize =
        size_count ? size_sum / static_cast<double>(size_count) : 0;

    // Marker-delimited samples.
    auto marker_uops = [&](int64_t id) -> std::optional<uint64_t> {
        for (const auto &hit : run.result.markers) {
            if (hit.id == id)
                return hit.retiredUops;
        }
        return std::nullopt;
    };
    auto marker_cycles = [&](int64_t id) -> std::optional<uint64_t> {
        for (const auto &[mid, cyc] : run.markerCycles) {
            if (mid == id)
                return cyc;
        }
        return std::nullopt;
    };
    double weight_total = 0;
    double weighted_cycles = 0;
    double weighted_uops = 0;
    for (const SampleSpec &spec : samples) {
        const auto u0 = marker_uops(spec.beginMarker);
        const auto u1 = marker_uops(spec.endMarker);
        const auto c0 = marker_cycles(spec.beginMarker);
        const auto c1 = marker_cycles(spec.endMarker);
        if (!u0 || !u1 || !c0 || !c1)
            continue;
        SampleMetrics sample;
        sample.beginMarker = spec.beginMarker;
        sample.endMarker = spec.endMarker;
        sample.weight = spec.weight;
        sample.cycles = *c1 - *c0;
        sample.uops = *u1 - *u0;
        metrics.samples.push_back(sample);
        weight_total += spec.weight;
        weighted_cycles += spec.weight *
                           static_cast<double>(sample.cycles);
        weighted_uops += spec.weight *
                         static_cast<double>(sample.uops);
    }
    if (weight_total > 0) {
        metrics.weightedCycles = weighted_cycles / weight_total;
        metrics.weightedUops = weighted_uops / weight_total;
    } else {
        metrics.weightedCycles = static_cast<double>(metrics.cycles);
        metrics.weightedUops =
            static_cast<double>(metrics.retiredUops);
    }
    return metrics;
}

} // namespace aregion::runtime

/**
 * @file
 * The experiment store behind runtime::runExperiment (jit.cc): a hit
 * reproduces its cold run field by field, an entry outlives the
 * program it was compiled from, requests that differ in the
 * bytecode, the profile or one configuration field never share an
 * entry, requests made once are never admitted, and one shared entry
 * gives identical results on every grid worker. Also checks the
 * compile memo on its own: its content address, its LRU under the
 * byte budget, and the code-size estimate that budget counts in
 * against the heap a compile actually keeps.
 *
 * Hits are observed through the jit.store.* counters, as deltas, so
 * the tests hold in any order within one process. Each test uses
 * programs or configurations no other test here requests.
 */

#include <malloc.h>

#include <cstdlib>
#include <memory>

#include <gtest/gtest.h>

#include "bench_common.hh"
#include "programs.hh"
#include "runtime/service/code_cache.hh"
#include "testing/random_program.hh"
#include "vm/interpreter.hh"

namespace {

using namespace aregion;
using namespace aregion::bench;
namespace keys = telemetry::keys;
namespace svc = aregion::runtime::service;

struct Hits
{
    uint64_t profile = 0;
    uint64_t compile = 0;
};

Hits
hits()
{
    auto &reg = telemetry::Registry::global();
    return {reg.counterValue(keys::kJitStoreProfileHits),
            reg.counterValue(keys::kJitStoreCompileHits)};
}

Hits
hitsSince(const Hits &before)
{
    const Hits now = hits();
    return {now.profile - before.profile, now.compile - before.compile};
}

void
expectSameRegions(const hw::RegionRuntime &a, const hw::RegionRuntime &b)
{
    EXPECT_EQ(a.entries, b.entries);
    EXPECT_EQ(a.commits, b.commits);
    EXPECT_EQ(a.abortsByAssert, b.abortsByAssert);
    for (size_t c = 0; c < hw::kNumAbortCauses; ++c)
        EXPECT_EQ(a.abortsByCause[c], b.abortsByCause[c]) << "cause " << c;
    EXPECT_EQ(a.dynamicSize.buckets(), b.dynamicSize.buckets());
    EXPECT_EQ(a.footprintLines.buckets(), b.footprintLines.buckets());
}

void
expectSameMachine(const hw::MachineResult &a, const hw::MachineResult &b)
{
    EXPECT_EQ(a.completed, b.completed);
    EXPECT_EQ(a.trap.has_value(), b.trap.has_value());
    EXPECT_EQ(a.retiredUops, b.retiredUops);
    EXPECT_EQ(a.executedUops, b.executedUops);
    EXPECT_EQ(a.discardedUops, b.discardedUops);
    EXPECT_EQ(a.regionUopsRetired, b.regionUopsRetired);
    EXPECT_EQ(a.allContextUops, b.allContextUops);
    EXPECT_EQ(a.regionEntries, b.regionEntries);
    EXPECT_EQ(a.regionCommits, b.regionCommits);
    EXPECT_EQ(a.regionAborts, b.regionAborts);
    EXPECT_EQ(a.monitorFastEnters, b.monitorFastEnters);
    EXPECT_EQ(a.backoffSteps, b.backoffSteps);
    EXPECT_EQ(a.specSuppressedEntries, b.specSuppressedEntries);
    EXPECT_EQ(a.livelockTrips, b.livelockTrips);
    ASSERT_EQ(a.regions.size(), b.regions.size());
    for (const auto &[key, stats] : a.regions) {
        SCOPED_TRACE("region " + std::to_string(key.first) + "/" +
                     std::to_string(key.second));
        ASSERT_TRUE(b.regions.count(key));
        expectSameRegions(stats, b.regions.at(key));
    }
    EXPECT_EQ(a.output, b.output);
    ASSERT_EQ(a.markers.size(), b.markers.size());
    for (size_t i = 0; i < a.markers.size(); ++i) {
        EXPECT_EQ(a.markers[i].id, b.markers[i].id);
        EXPECT_EQ(a.markers[i].retiredUops, b.markers[i].retiredUops);
    }
}

/** Every field of RunMetrics, exactly: a hit must not perturb even
 *  the derived floating-point figures. */
void
expectSameMetrics(const rt::RunMetrics &a, const rt::RunMetrics &b)
{
    EXPECT_EQ(a.completed, b.completed);
    EXPECT_EQ(a.cycles, b.cycles);
    EXPECT_EQ(a.retiredUops, b.retiredUops);
    EXPECT_EQ(a.executedUops, b.executedUops);
    EXPECT_EQ(a.weightedCycles, b.weightedCycles);
    EXPECT_EQ(a.weightedUops, b.weightedUops);
    EXPECT_EQ(a.coverage, b.coverage);
    EXPECT_EQ(a.uniqueRegions, b.uniqueRegions);
    EXPECT_EQ(a.avgRegionSize, b.avgRegionSize);
    EXPECT_EQ(a.abortPct, b.abortPct);
    EXPECT_EQ(a.abortsPer1kUops, b.abortsPer1kUops);
    EXPECT_EQ(a.regionEntries, b.regionEntries);
    EXPECT_EQ(a.regionAborts, b.regionAborts);
    EXPECT_EQ(a.mispredicts, b.mispredicts);
    EXPECT_EQ(a.serializations, b.serializations);
    EXPECT_EQ(a.l1Misses, b.l1Misses);
    EXPECT_EQ(a.monitorFastEnters, b.monitorFastEnters);
    EXPECT_EQ(a.recompiled, b.recompiled);
    EXPECT_EQ(a.outputChecksum, b.outputChecksum);
    ASSERT_EQ(a.samples.size(), b.samples.size());
    for (size_t i = 0; i < a.samples.size(); ++i) {
        EXPECT_EQ(a.samples[i].beginMarker, b.samples[i].beginMarker);
        EXPECT_EQ(a.samples[i].endMarker, b.samples[i].endMarker);
        EXPECT_EQ(a.samples[i].weight, b.samples[i].weight);
        EXPECT_EQ(a.samples[i].cycles, b.samples[i].cycles);
        EXPECT_EQ(a.samples[i].uops, b.samples[i].uops);
    }
    expectSameMachine(a.machine, b.machine);
}

rt::ExperimentConfig
experiment(const core::CompilerConfig &cc)
{
    rt::ExperimentConfig config;
    config.compiler = cc;
    return config;
}

size_t
indexOf(const std::vector<BuiltWorkload> &built, const std::string &name)
{
    for (size_t i = 0; i < built.size(); ++i) {
        if (built[i].workload->name == name)
            return i;
    }
    ADD_FAILURE() << "no workload " << name;
    return 0;
}

/** Every analog under the paper's four configurations, plus bloat's
 *  adaptive cell (which recompiles), run cold, then again (which
 *  admits every key), then warm: the warm pass is served entirely
 *  from the store and matches the cold pass exactly. */
TEST(StoreTest, WarmRunsMatchColdRunsForEveryAnalog)
{
    const std::vector<BuiltWorkload> built = buildPrograms(suitePointers());
    std::vector<GridCell> cells;
    for (size_t wi = 0; wi < built.size(); ++wi) {
        for (const core::CompilerConfig &cc : paperConfigs())
            cells.push_back({wi, experiment(cc)});
    }
    rt::ExperimentConfig adaptive =
        experiment(core::CompilerConfig::atomicAggressiveInline());
    adaptive.adaptiveRecompile = true;
    cells.push_back({indexOf(built, "bloat"), adaptive});

    const Hits start = hits();
    const std::vector<rt::RunMetrics> cold = runCellGrid(built, cells);
    EXPECT_EQ(hitsSince(start).compile, 0u) << "the cold pass compiled";
    ASSERT_TRUE(cold.back().recompiled);

    runCellGrid(built, cells);
    const Hits admitted = hits();
    const std::vector<rt::RunMetrics> warm = runCellGrid(built, cells);
    const Hits warm_hits = hitsSince(admitted);
    EXPECT_EQ(warm_hits.profile, cells.size());
    EXPECT_EQ(warm_hits.compile, cells.size() + 1)
        << "every compile, the adaptive recompile included, hits";

    for (size_t i = 0; i < cells.size(); ++i) {
        SCOPED_TRACE(built[cells[i].workload].workload->name + " " +
                     cells[i].config.compiler.name +
                     (cells[i].config.adaptiveRecompile ? " adaptive"
                                                        : ""));
        expectSameMetrics(cold[i], warm[i]);
    }
}

/** The store compiles against its own copy of the program: the
 *  caller's program is destroyed and an identical one is built at
 *  another address, and the next request still hits (ASan flags any
 *  access to the freed original) and reproduces the cold result. */
TEST(StoreTest, EntryOutlivesTheProgramItWasCompiledFrom)
{
    const rt::ExperimentConfig config =
        experiment(core::CompilerConfig::atomic());
    auto first =
        std::make_unique<vm::Program>(test::addElementProgram(1700, 128));
    const rt::RunMetrics cold = rt::runExperiment(*first, *first, config);
    rt::runExperiment(*first, *first, config);

    auto second =
        std::make_unique<vm::Program>(test::addElementProgram(1700, 128));
    ASSERT_NE(first.get(), second.get());
    first.reset();

    const Hits before = hits();
    const rt::RunMetrics warm = rt::runExperiment(*second, *second, config);
    EXPECT_EQ(hitsSince(before).profile, 1u);
    EXPECT_EQ(hitsSince(before).compile, 1u);
    expectSameMetrics(cold, warm);
}

vm::Profile
profileOf(const vm::Program &prog)
{
    vm::Profile profile(prog);
    vm::Interpreter(prog, &profile).run();
    return profile;
}

/** Each input below changes the content address — the bytecode, the
 *  profile, or one configuration field — so a request differing from
 *  an admitted one only in that input misses. */
TEST(StoreTest, ConfigsDifferingInOneFieldNeverShareAnEntry)
{
    const vm::Program prog = test::addElementProgram(900, 64);
    // The same methods with another insert count: other bytecode, and
    // as the profile program, another profile.
    const vm::Program other = test::addElementProgram(1100, 64);
    const rt::ExperimentConfig base =
        experiment(core::CompilerConfig::atomicAggressiveInline());

    struct Variant
    {
        std::string what;
        const vm::Program *profileProg;
        const vm::Program *measureProg;
        rt::ExperimentConfig config;
    };
    std::vector<Variant> variants{{"bytecode", &prog, &other, base},
                                  {"profile", &other, &prog, base}};
    auto vary = [&](const std::string &what, auto &&edit) {
        rt::ExperimentConfig config = base;
        edit(config.compiler);
        variants.push_back({what, &prog, &prog, std::move(config)});
    };
    vary("warmOverrides", [&](core::CompilerConfig &cc) {
        cc.region.warmOverrides.insert({prog.mainMethod, 0});
    });
    vary("blacklistMethods", [&](core::CompilerConfig &cc) {
        cc.region.blacklistMethods.insert(prog.mainMethod);
    });
    vary("targetSize", [](core::CompilerConfig &cc) {
        cc.region.targetSize *= 2;
    });
    vary("sle", [](core::CompilerConfig &cc) { cc.sle = !cc.sle; });
    vary("elideSafepointsInRegions", [](core::CompilerConfig &cc) {
        cc.elideSafepointsInRegions = !cc.elideSafepointsInRegions;
    });

    const uint64_t base_key =
        svc::cacheKey(prog, profileOf(prog), base.compiler);

    rt::runExperiment(prog, prog, base);
    rt::runExperiment(prog, prog, base);
    Hits before = hits();
    rt::runExperiment(prog, prog, base);
    ASSERT_EQ(hitsSince(before).compile, 1u) << "the base entry is held";

    for (const Variant &v : variants) {
        SCOPED_TRACE(v.what);
        EXPECT_NE(svc::cacheKey(*v.measureProg, profileOf(*v.profileProg),
                                v.config.compiler),
                  base_key);
        before = hits();
        const rt::RunMetrics m =
            rt::runExperiment(*v.profileProg, *v.measureProg, v.config);
        EXPECT_TRUE(m.completed);
        EXPECT_EQ(hitsSince(before).compile, 0u);
    }
}

/** 200 distinct programs requested once each are never admitted, so
 *  a repeat of the first still misses on both profile and compile. */
TEST(StoreTest, RequestsMadeOnceAreNeverAdmitted)
{
    // Trap- and thread-free, so every program runs to completion.
    namespace gen = aregion::testing;
    constexpr uint32_t kFeatures = gen::kArrays | gen::kObjects |
                                   gen::kVirtualChains | gen::kMonitors |
                                   gen::kAbortShapes;
    std::vector<vm::Program> programs;
    for (uint64_t seed = 7001; seed < 7201; ++seed) {
        gen::RandomProgramGen generator(seed, kFeatures);
        programs.push_back(gen::renderProgram(generator.generate()));
    }
    const rt::ExperimentConfig config =
        experiment(core::CompilerConfig::baseline());
    const Hits start = hits();
    for (const vm::Program &p : programs)
        ASSERT_TRUE(rt::runExperiment(p, p, config).completed);
    EXPECT_EQ(hitsSince(start).profile, 0u);
    EXPECT_EQ(hitsSince(start).compile, 0u);

    const Hits before = hits();
    rt::runExperiment(programs.front(), programs.front(), config);
    EXPECT_EQ(hitsSince(before).profile, 0u);
    EXPECT_EQ(hitsSince(before).compile, 0u);
}

/** One cell 16 times on four grid workers: the workers share the
 *  store's entries read-only (TSan checks the sharing) and every
 *  result is identical. */
TEST(StoreTest, SharedEntriesGiveIdenticalResultsOnGridWorkers)
{
    ASSERT_EQ(setenv("AREGION_JOBS", "4", 1), 0);
    const std::vector<BuiltWorkload> built =
        buildPrograms(suitePointers({"hsqldb"}));
    const std::vector<GridCell> cells(
        16, GridCell{0, experiment(core::CompilerConfig::atomic())});
    const Hits before = hits();
    const std::vector<rt::RunMetrics> runs = runCellGrid(built, cells);
    EXPECT_GT(hitsSince(before).compile, 0u);
    for (size_t i = 1; i < runs.size(); ++i) {
        SCOPED_TRACE("run " + std::to_string(i));
        expectSameMetrics(runs.front(), runs[i]);
    }
}

/** The content address itself, outside the store: deterministic, and
 *  changed by the bytecode, the profile and the compiler config. The
 *  suite is named after the runtime::service namespace cacheKey lives
 *  in. */
TEST(ServiceTest, CacheKeyReflectsEveryInput)
{
    namespace gen = aregion::testing;
    auto randomProgram = [](uint64_t seed) {
        gen::RandomProgramGen generator(seed, gen::kLegacyScalar);
        return gen::renderProgram(generator.generate());
    };
    const vm::Program a = randomProgram(1);
    const vm::Program b = randomProgram(2);
    const vm::Profile profile_a = profileOf(a);
    const vm::Profile profile_b = profileOf(b);
    const core::CompilerConfig atomic = core::CompilerConfig::atomic();

    const uint64_t key_a = svc::cacheKey(a, profile_a, atomic);
    EXPECT_EQ(key_a, svc::cacheKey(a, profile_a, atomic));
    EXPECT_NE(key_a, svc::cacheKey(b, profile_b, atomic));
    EXPECT_NE(key_a, svc::cacheKey(a, profile_a,
                                   core::CompilerConfig::baseline()));
    // Profiles drive region formation, so they are part of the key.
    EXPECT_NE(key_a, svc::cacheKey(a, profile_b, atomic));
}

/** A cache entry with no code, only a key and a size. */
std::shared_ptr<const svc::CachedCode>
fakeEntry(uint64_t key, size_t bytes)
{
    auto code = std::make_shared<svc::CachedCode>();
    code->key = key;
    code->sizeBytes = bytes;
    return code;
}

TEST(StoreTest, CacheEvictsLruUnderByteBudget)
{
    svc::CodeCache cache(1000);
    cache.insert(fakeEntry(1, 400));
    cache.insert(fakeEntry(2, 400));
    // Touch 1 so 2 becomes the LRU victim of the next insert.
    EXPECT_NE(cache.lookup(1), nullptr);
    cache.insert(fakeEntry(3, 400));
    EXPECT_EQ(cache.lookup(2), nullptr);
    EXPECT_NE(cache.lookup(1), nullptr);
    EXPECT_NE(cache.lookup(3), nullptr);
}

/** An entry larger than the whole budget still serves its requesters;
 *  only the next insert displaces it. */
TEST(StoreTest, CacheKeepsOversizedNewestEntry)
{
    svc::CodeCache cache(100);
    cache.insert(fakeEntry(1, 400));
    EXPECT_NE(cache.lookup(1), nullptr);
    cache.insert(fakeEntry(2, 400));
    EXPECT_EQ(cache.lookup(1), nullptr);
    EXPECT_NE(cache.lookup(2), nullptr);
}

size_t
heapInUse()
{
    const struct mallinfo2 info = mallinfo2();
    return info.uordblks + info.hblkhd;
}

/** The store's code budget counts estimateCodeBytes; it must stay
 *  within a factor of 1.5 of the heap a compile keeps, on every
 *  analog at both ends of the configuration range. */
TEST(CodeSizeEstimate, WithinFactorOfMeasuredHeapBytes)
{
#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
    GTEST_SKIP() << "mallinfo2 does not see the sanitizer allocator";
#endif
    constexpr double kFactor = 1.5;
    const std::vector<core::CompilerConfig> configs{
        core::CompilerConfig::baseline(),
        core::CompilerConfig::atomicAggressiveInline()};
    bool warm = false;
    for (const wl::Workload &w : wl::dacapoSuite()) {
        const vm::Program profile_prog = w.build(true);
        const vm::Program measure_prog = w.build(false);
        vm::Profile profile(profile_prog);
        vm::Interpreter(profile_prog, &profile).run();
        if (!warm) {
            // The first compiles of a process also allocate the pass
            // timers' and telemetry registry's one-time state.
            for (const core::CompilerConfig &cc : configs)
                core::compileProgram(measure_prog, profile, cc);
            warm = true;
        }
        for (const core::CompilerConfig &cc : configs) {
            // Several live copies average out the free chunks the
            // allocator's per-thread cache still counts as in use.
            constexpr int kCopies = 4;
            std::vector<core::Compiled> kept;
            kept.reserve(kCopies);
            const size_t before = heapInUse();
            for (int i = 0; i < kCopies; ++i)
                kept.push_back(
                    core::compileProgram(measure_prog, profile, cc));
            const double measured =
                static_cast<double>(heapInUse() - before) / kCopies;
            const double ratio =
                static_cast<double>(svc::estimateCodeBytes(kept.front())) /
                measured;
            EXPECT_LE(ratio, kFactor) << w.name << " " << cc.name;
            EXPECT_GE(ratio, 1 / kFactor) << w.name << " " << cc.name;
        }
    }
}

} // namespace

/**
 * @file
 * The experiment store behind runtime::runExperiment (jit.cc): a hit
 * reproduces its cold run field by field, an entry outlives the
 * program it was compiled from, requests that differ in the
 * bytecode, the profile or one configuration field never share an
 * entry, requests made once are never admitted, and one shared entry
 * gives identical results on every grid worker, and the compiles it
 * holds are bounded. Also checks the content address on its own. One
 * level up, the bench Grid shares a cell only between requests whose
 * program and config are equal.
 *
 * Hits are observed through the jit.store.* counters, as deltas, so
 * the tests hold in any order within one process. Each test uses
 * programs or configurations no other test here requests.
 */

#include <cstdlib>
#include <memory>

#include <gtest/gtest.h>

#include "figures.hh"
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

/** Every analog under the paper's four configurations, plus bloat's
 *  adaptive cell (which recompiles), run cold, then again (which
 *  admits every key), then warm: the warm pass is served entirely
 *  from the store and matches the cold pass exactly. */
TEST(StoreTest, WarmRunsMatchColdRunsForEveryAnalog)
{
    Grid grid;
    std::vector<std::string> labels;
    for (const wl::Workload &w : wl::dacapoSuite()) {
        for (const core::CompilerConfig &cc : paperConfigs()) {
            grid.request(w, experiment(cc));
            labels.push_back(w.name + " " + cc.name);
        }
    }
    rt::ExperimentConfig adaptive =
        experiment(core::CompilerConfig::atomicAggressiveInline());
    adaptive.adaptiveRecompile = true;
    grid.request(wl::workloadByName("bloat"), adaptive);
    labels.push_back("bloat adaptive");
    ASSERT_EQ(grid.distinct(), grid.requested());

    const Hits start = hits();
    grid.run();
    std::vector<rt::RunMetrics> cold;
    for (size_t i = 0; i < grid.requested(); ++i)
        cold.push_back(grid[i]);
    EXPECT_EQ(hitsSince(start).compile, 0u) << "the cold pass compiled";
    ASSERT_TRUE(cold.back().recompiled);

    grid.run();
    const Hits admitted = hits();
    grid.run();
    const Hits warm_hits = hitsSince(admitted);
    EXPECT_EQ(warm_hits.profile, grid.distinct());
    EXPECT_EQ(warm_hits.compile, grid.distinct() + 1)
        << "every compile, the adaptive recompile included, hits";

    for (size_t i = 0; i < grid.requested(); ++i) {
        SCOPED_TRACE(labels[i]);
        expectSameMetrics(cold[i], grid[i]);
    }
}

/** The grid shares a cell between two requests only when the program
 *  and every ExperimentConfig field are equal: a rule that ignored a
 *  field would make one figure print another figure's numbers. */
TEST(StoreTest, GridSharesCellsOnlyBetweenEqualRequests)
{
    const wl::Workload &xalan = wl::workloadByName("xalan");
    const rt::ExperimentConfig base =
        experiment(core::CompilerConfig::atomicAggressiveInline());
    Grid grid;
    grid.request(xalan, base);
    grid.request(xalan, base);
    EXPECT_EQ(grid.distinct(), 1u);

    grid.request(wl::workloadByName("hsqldb"), base);
    auto vary = [&](auto &&edit) {
        rt::ExperimentConfig config = base;
        edit(config);
        grid.request(xalan, config);
    };
    vary([](rt::ExperimentConfig &c) {
        c.timing = hw::TimingConfig::stallBegin();
    });
    // Same preset name, one field changed.
    vary([](rt::ExperimentConfig &c) { c.timing.width = 2; });
    vary([](rt::ExperimentConfig &c) { c.compiler.sle = false; });
    vary([](rt::ExperimentConfig &c) {
        c.compiler.region.targetSize = 100;
    });
    vary([](rt::ExperimentConfig &c) { c.hw.interruptPeriod = 1'000'000; });
    vary([](rt::ExperimentConfig &c) { c.adaptiveRecompile = true; });
    EXPECT_EQ(grid.requested(), 9u);
    EXPECT_EQ(grid.distinct(), 8u);

    // The paper's request list: 220 requests on the analogs need 114
    // cells. Figures 3 and the postdom ablation make the rest, all on
    // the addElement sample.
    Grid paper;
    planPaper(paper);
    Grid sample;
    fig3(sample);
    ablationPostdom(sample);
    EXPECT_EQ(paper.requested() - sample.requested(), 220u);
    EXPECT_EQ(paper.distinct() - sample.distinct(), 114u);
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

/** `count` random programs from consecutive seeds, trap- and
 *  thread-free so every one runs to completion. */
std::vector<vm::Program>
randomPrograms(uint64_t first_seed, uint64_t count)
{
    namespace gen = aregion::testing;
    constexpr uint32_t kFeatures = gen::kArrays | gen::kObjects |
                                   gen::kVirtualChains | gen::kMonitors |
                                   gen::kAbortShapes;
    std::vector<vm::Program> programs;
    for (uint64_t seed = first_seed; seed < first_seed + count; ++seed) {
        gen::RandomProgramGen generator(seed, kFeatures);
        programs.push_back(gen::renderProgram(generator.generate()));
    }
    return programs;
}

/** 200 distinct programs requested once each are never admitted, so
 *  a repeat of the first still misses on both profile and compile. */
TEST(StoreTest, RequestsMadeOnceAreNeverAdmitted)
{
    const std::vector<vm::Program> programs = randomPrograms(7001, 200);
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

/** 300 distinct compiles, more than the store holds, each requested
 *  twice so it is admitted. The store's memory is bounded: the first
 *  compile has been dropped and runs again on its next request, while
 *  the last is still held. */
TEST(StoreTest, HeldCompilesAreBounded)
{
    const std::vector<vm::Program> programs = randomPrograms(7301, 300);
    const rt::ExperimentConfig config =
        experiment(core::CompilerConfig::baseline());
    for (const vm::Program &p : programs) {
        ASSERT_TRUE(rt::runExperiment(p, p, config).completed);
        rt::runExperiment(p, p, config);
    }

    Hits before = hits();
    rt::runExperiment(programs.front(), programs.front(), config);
    EXPECT_EQ(hitsSince(before).compile, 0u) << "the first compile is gone";
    before = hits();
    rt::runExperiment(programs.back(), programs.back(), config);
    EXPECT_EQ(hitsSince(before).compile, 1u) << "the last compile is held";
}

/** One experiment 16 times on four parallel::runGrid workers (a Grid
 *  would run it once): the workers share the store's entries
 *  read-only (TSan checks the sharing) and every result is
 *  identical. */
TEST(StoreTest, SharedEntriesGiveIdenticalResultsOnGridWorkers)
{
    ASSERT_EQ(setenv("AREGION_JOBS", "4", 1), 0);
    const wl::Workload &hsqldb = wl::workloadByName("hsqldb");
    const vm::Program profile = hsqldb.build(true);
    const vm::Program measure = hsqldb.build(false);
    const rt::ExperimentConfig config =
        experiment(core::CompilerConfig::atomic());
    std::vector<rt::RunMetrics> runs(16);
    const Hits before = hits();
    parallel::runGrid(runs.size(), [&](size_t i) {
        runs[i] = rt::runExperiment(profile, measure, config, hsqldb.samples);
    });
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

} // namespace

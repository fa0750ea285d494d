/**
 * @file
 * Region explorer: compile any of the evaluation workloads with
 * atomic regions and dump the formed region structure (the Figure
 * 1(d) / Figure 5(b) view) plus runtime region statistics.
 *
 * Usage: region_explorer [workload] [--ir]
 *   workload: antlr bloat fop hsqldb jython pmd xalan (default xalan)
 *   --ir:     also print the full IR of every function with regions
 * An unknown workload or flag exits 2 with a usage line on stderr
 * before anything runs.
 */

#include <cstdio>
#include <string>

#include "core/compiler.hh"
#include "hw/trace.hh"
#include "ir/printer.hh"
#include "runtime/jit.hh"
#include "vm/interpreter.hh"
#include "workloads/workload.hh"

using namespace aregion;

namespace {

int
usage(const std::string &problem)
{
    std::fprintf(stderr, "%s\nusage: region_explorer [workload] [--ir]\n",
                 problem.c_str());
    return 2;
}

} // namespace

int
main(int argc, char **argv)
{
    std::string name;
    bool dump_ir = false;
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        if (arg == "--ir")
            dump_ir = true;
        else if (arg[0] == '-' || !name.empty())
            return usage("unexpected argument '" + arg + "'");
        else
            name = arg;
    }
    if (name.empty())
        name = "xalan";
    const workloads::Workload *found = nullptr;
    for (const workloads::Workload &w : workloads::dacapoSuite()) {
        if (w.name == name)
            found = &w;
    }
    if (!found)
        return usage("no workload named '" + name + "'");
    const workloads::Workload &w = *found;
    const vm::Program profile_prog = w.build(true);
    const vm::Program measure_prog = w.build(false);

    vm::Profile profile(profile_prog);
    {
        vm::Interpreter interp(profile_prog, &profile);
        interp.run();
    }
    core::Compiled compiled = core::compileProgram(
        measure_prog, profile,
        core::CompilerConfig::atomicAggressiveInline());

    std::printf("workload %s: %d region(s) formed, %d asserts, "
                "%d blocks replicated, %d SLE pairs elided\n\n",
                name.c_str(), compiled.stats.regions.regionsFormed,
                compiled.stats.regions.assertsCreated,
                compiled.stats.regions.blocksReplicated,
                compiled.stats.slePairsElided);

    for (const auto &[m, f] : compiled.mod.funcs) {
        if (f.regions.empty())
            continue;
        std::printf("function %s: %zu region(s)\n", f.name.c_str(),
                    f.regions.size());
        for (const auto &region : f.regions) {
            int blocks = 0;
            int instrs = 0;
            int asserts = 0;
            for (int b = 0; b < f.numBlocks(); ++b) {
                if (f.block(b).regionId != region.id)
                    continue;
                ++blocks;
                instrs += static_cast<int>(
                    f.block(b).instrs.size());
                for (const auto &in : f.block(b).instrs)
                    asserts += in.op == ir::Op::Assert;
            }
            std::printf("  region %d: entry=b%d alt=b%d  "
                        "%d blocks, %d instrs, %d asserts\n",
                        region.id, region.entryBlock,
                        region.altBlock, blocks, instrs, asserts);
        }
        if (dump_ir)
            std::printf("%s\n", ir::toString(f).c_str());
    }

    // Runtime statistics under the default machine.
    runtime::ExperimentConfig config;
    config.compiler = core::CompilerConfig::atomicAggressiveInline();
    const auto metrics = runtime::runExperiment(
        profile_prog, measure_prog, config, w.samples);
    std::printf("\nruntime: coverage %.0f%%, %d unique regions, "
                "avg size %.0f uops,\n         abort %.2f%% of "
                "entries (%.3f per 1k uops)\n",
                metrics.coverage * 100, metrics.uniqueRegions,
                metrics.avgRegionSize, metrics.abortPct * 100,
                metrics.abortsPer1kUops);
    for (const auto &[key, stats] : metrics.machine.regions) {
        if (stats.entries == 0)
            continue;
        std::printf("  (method %d, region %d): %llu entries, "
                    "%llu commits",
                    key.first, key.second,
                    static_cast<unsigned long long>(stats.entries),
                    static_cast<unsigned long long>(stats.commits));
        if (stats.totalAborts() > 0) {
            std::printf(", aborts:");
            for (size_t c = 0; c < hw::kNumAbortCauses; ++c) {
                if (stats.abortsByCause[c]) {
                    std::printf(" %s=%llu",
                                hw::abortCauseName(
                                    static_cast<hw::AbortCause>(c)),
                                static_cast<unsigned long long>(
                                    stats.abortsByCause[c]));
                }
            }
        }
        std::printf("\n");
    }
    return 0;
}

/**
 * @file
 * The paper's figures, tables and ablations (the experiment index in
 * DESIGN.md). Each one queues the experiments it reads on the shared
 * Grid and returns a render step that prints it from their results;
 * bench/reproduce.cc runs the grid in between. Paper reference values
 * (eyeballed from the published figures) are carried alongside, so
 * every table prints measured-vs-paper columns.
 */

#ifndef AREGION_BENCH_FIGURES_HH
#define AREGION_BENCH_FIGURES_HH

#include <cstdio>
#include <functional>
#include <map>
#include <string>
#include <vector>

#include "bench_common.hh"
#include "core/compiler.hh"
#include "core/region_formation.hh"
#include "ir/ir.hh"
#include "ir/printer.hh"
#include "ir/verifier.hh"
#include "programs.hh"
#include "support/statistics.hh"
#include "support/table.hh"
#include "vm/interpreter.hh"

namespace aregion::bench {

/** Prints one figure from its results; returns its table. */
using Render = std::function<TextTable()>;

struct Figure
{
    const char *title;      ///< the table's key in the JSON export
    Render render;
};

/** Figures 2/3's SuballocatedIntVector.addElement example
 *  (tests/programs.hh): 3000 inserts into 512-slot chunks, one build
 *  for profiling and measurement, no sample windows. */
inline const wl::Workload &
addElementSample()
{
    static const wl::Workload sample{
        .name = "addElement",
        .description = "SuballocatedIntVector.addElement, called twice",
        .paperSamples = 1,
        .build = [](bool) { return test::addElementProgram(3000, 512); },
        .samples = {}};
    return sample;
}

/** Compile `prog` against its own interpreter profile. */
inline core::Compiled
compileProfiled(const vm::Program &prog, const core::CompilerConfig &config)
{
    vm::Profile profile(prog);
    vm::Interpreter(prog, &profile).run();
    return core::compileProgram(prog, profile, config);
}

/**
 * Figure 1's motivation numbers on the jython analog: the hottest
 * loop's dynamic path executes hundreds of instructions and many
 * conditional branches per iteration under the baseline compiler
 * (the paper: 109 branches, > 600 instructions), and isolating the
 * hot path in atomic regions removes a large fraction of them (the
 * paper's manual analysis: more than two thirds).
 */
inline Render
fig1(Grid &grid)
{
    Runs runs(grid);
    const wl::Workload &jython = wl::workloadByName("jython");
    runs.add(jython, experiment(core::CompilerConfig::baseline()));
    runs.add(jython,
             experiment(core::CompilerConfig::atomicAggressiveInline()));
    return [runs]() mutable {
        const rt::RunMetrics &base = runs.next();
        const rt::RunMetrics &atomic = runs.next();

        // The dispatch loop executes 130 passes over a 128-op program.
        const double passes = 130;
        const double base_per_pass = base.weightedUops / passes;
        const double atomic_per_pass = atomic.weightedUops / passes;

        std::printf("Figure 1: the cost of control flow on the hottest "
                    "loop (jython analog)\n\n");
        TextTable table({"metric", "baseline", "atomic regions",
                         "paper"});
        table.addRow({"uops per dispatch-loop pass",
                      TextTable::fmt(base_per_pass, 0),
                      TextTable::fmt(atomic_per_pass, 0),
                      ">600 -> ~1/3 kept"});
        table.addRow({"mispredicted branches (run)",
                      std::to_string(base.mispredicts),
                      std::to_string(atomic.mispredicts), "-"});
        table.addRow({"reduction in loop uops", "-",
                      TextTable::pct(1.0 - atomic_per_pass /
                                               base_per_pass, 1),
                      "up to 2/3 (manual)"});
        table.addRow({"unique atomic regions", "-",
                      std::to_string(atomic.uniqueRegions), "-"});
        table.addRow({"avg dynamic region size", "-",
                      TextTable::fmt(atomic.avgRegionSize, 0), "227"});
        std::printf("%s\n", table.render().c_str());
        std::printf("The CFG shapes of Figure 1(a)-(d) are demonstrated "
                    "structurally by\nFigure 5 below and "
                    "examples/region_explorer.\n");
        return table;
    };
}

/**
 * Figures 2/3: compiler-based redundancy removal on the
 * SuballocatedIntVector.addElement example, called twice in sequence
 * at its hottest call site. Three compilers are compared:
 *
 *   (a) inlined but otherwise minimally optimized (Figure 3a),
 *   (b) the baseline non-speculative pipeline, whose cold-path joins
 *       block redundancy elimination (Figure 3b/c needs compensation
 *       code the baseline cannot afford),
 *   (c) atomic regions, where the cold paths become asserts and the
 *       same passes remove the redundant checks and loads with no
 *       compensation code.
 */
inline Render
fig3(Grid &grid)
{
    core::CompilerConfig unopt = core::CompilerConfig::baseline();
    unopt.name = "inlined-only";
    unopt.opt.unrollBodyLimit = 0;
    unopt.opt.maxScalarIters = 1;
    const std::vector<core::CompilerConfig> configs{
        unopt, core::CompilerConfig::baseline(),
        core::CompilerConfig::atomic()};
    Runs runs(grid);
    for (const core::CompilerConfig &cc : configs)
        runs.add(addElementSample(), experiment(cc));

    return [runs, configs]() mutable {
        struct Counts
        {
            uint64_t uopsPerInsert = 0;
            int nullChecks = 0;
            int boundsChecks = 0;
            int lengthLoads = 0;
        };
        const vm::Program prog = addElementSample().build(false);
        std::vector<Counts> counts(configs.size());
        for (size_t i = 0; i < configs.size(); ++i) {
            Counts &c = counts[i];
            // Static checks on the hot code (main, where the pair of
            // calls is inlined).
            const core::Compiled compiled =
                compileProfiled(prog, configs[i]);
            const ir::Function &f = compiled.mod.funcs.at(prog.mainMethod);
            for (int b = 0; b < f.numBlocks(); ++b) {
                const ir::Block &blk = f.block(b);
                if (blk.execCount < 100)
                    continue;   // hot code only
                for (const auto &in : blk.instrs) {
                    c.nullChecks += in.op == ir::Op::NullCheck;
                    c.boundsChecks += in.op == ir::Op::BoundsCheck;
                    c.lengthLoads += in.op == ir::Op::LoadRaw &&
                                     in.imm == vm::layout::ARR_LEN;
                }
            }
            c.uopsPerInsert = runs.next().retiredUops / (2 * 3000);
        }
        const Counts &a = counts[0];
        const Counts &b = counts[1];
        const Counts &c = counts[2];

        std::printf("Figure 3: redundancy removal on addElement "
                    "(two sequential calls inlined)\n\n");
        TextTable table({"metric", "inlined-only", "baseline",
                         "atomic region"});
        table.addRow({"uops per insert",
                      std::to_string(a.uopsPerInsert),
                      std::to_string(b.uopsPerInsert),
                      std::to_string(c.uopsPerInsert)});
        table.addRow({"static null checks (hot code*)",
                      std::to_string(a.nullChecks),
                      std::to_string(b.nullChecks),
                      std::to_string(c.nullChecks)});
        table.addRow({"static bounds checks (hot code*)",
                      std::to_string(a.boundsChecks),
                      std::to_string(b.boundsChecks),
                      std::to_string(c.boundsChecks)});
        table.addRow({"static length loads (hot code*)",
                      std::to_string(a.lengthLoads),
                      std::to_string(b.lengthLoads),
                      std::to_string(c.lengthLoads)});
        std::printf("%s\n", table.render().c_str());
        std::printf("* atomic-region static counts span the region's "
                    "partially-unrolled copies\n  (4 iterations = 8 "
                    "inserts); divide accordingly to compare per "
                    "insert.\n");
        std::printf("Expected shape (paper Fig. 3): the atomic-region "
                    "compiler removes the second\ncopy's redundant "
                    "null check and length load with no compensation "
                    "code, while\nthe baseline is blocked by the cold "
                    "chunk-overflow join.\n");
        return table;
    };
}

/** The Figure 5(a) flowgraph with the paper's edge biases. */
inline ir::Function
figure5a()
{
    using ir::Op;
    auto mk = [](Op op, ir::Vreg dst = ir::NO_VREG,
                 std::vector<ir::Vreg> srcs = {}, int64_t imm = 0) {
        ir::Instr in;
        in.op = op;
        in.dst = dst;
        in.srcs = std::move(srcs);
        in.imm = imm;
        return in;
    };
    ir::Function f;
    f.name = "figure5a";
    const ir::Vreg c = f.newVreg();
    const ir::Vreg x = f.newVreg();
    // Blocks: 0=entry(F pre-header) 1=F(outer header) 2=B(inner
    // header) 3=C 4=I(cold) 5=D 6=E 7=H(latch) 8=G(exit)
    for (int i = 0; i < 9; ++i)
        f.newBlock();
    auto fill = [&](int b, int ops, std::vector<int> succs,
                    std::vector<double> counts, bool branch) {
        ir::Block &blk = f.block(b);
        for (int i = 0; i < ops; ++i)
            blk.instrs.push_back(mk(Op::Add, x, {x, x}));
        if (branch)
            blk.instrs.push_back(mk(Op::Branch, ir::NO_VREG, {c}));
        else if (!succs.empty())
            blk.instrs.push_back(mk(Op::Jump));
        else
            blk.instrs.push_back(mk(Op::Ret));
        double exec = 0;
        for (double v : counts)
            exec += v;
        blk.execCount = exec;
        blk.succs = std::move(succs);
        blk.succCount = std::move(counts);
    };
    f.block(0).instrs.push_back(mk(Op::Const, c, {}, 1));
    f.block(0).instrs.push_back(mk(Op::Const, x, {}, 1));
    f.block(0).instrs.push_back(mk(Op::Jump));
    f.block(0).succs = {1};
    f.block(0).succCount = {100};
    f.block(0).execCount = 100;

    fill(1, 4, {2}, {10100}, false);                // F -> B
    fill(2, 6, {3, 4}, {100000, 900}, true);        // B -> C | I(cold-ish)
    // Re-balance: B->I is <1% of B.
    f.block(2).succCount = {100000, 900};
    fill(3, 6, {5, 6}, {50450, 50450}, true);       // C -> D | E (50%)
    fill(4, 5, {7}, {900}, false);                  // I -> H (cold)
    fill(5, 5, {7}, {50450}, false);                // D -> H
    fill(6, 5, {7}, {50450}, false);                // E -> H
    fill(7, 4, {2, 1, 8}, {0, 0, 0}, true);         // H: back edges
    // H -> B (inner back edge, 99%), H -> F (outer, ~1%), H -> G.
    f.block(7).succs = {2, 1};
    f.block(7).instrs.back() = mk(Op::Branch, ir::NO_VREG, {c});
    f.block(7).succCount = {90800, 10000};
    f.block(7).execCount = 101800 - 1000;
    // Give F a second successor to G so the program exits.
    f.block(1).instrs.back() = mk(Op::Branch, ir::NO_VREG, {c});
    f.block(1).succs = {2, 8};
    f.block(1).succCount = {10100 - 100, 100};
    f.block(1).execCount = 10100;
    f.block(2).execCount = 100900;
    f.block(3).execCount = 100900 * 0.99;
    f.block(8).instrs.clear();
    f.block(8).instrs.push_back(mk(Op::Ret));
    f.block(8).execCount = 100;
    f.entry = 0;
    return f;
}

/**
 * Figure 5: region formation before/after on the paper's example
 * CFG — a loop (header B) nested in an outer loop (header F), with
 * cold edges (<1%) out of B and C, a 50% diamond (D/E), and a hot
 * back edge. Prints the formed structure and checks the paper's
 * properties: per-iteration regions at the selected loop header,
 * partial unrolling of the outer loop's body, cold edges converted
 * to asserts, and exits committing at aregion_end before re-entering
 * at aregion_begin. Runs no experiment.
 */
inline Render
fig5(Grid &)
{
    return [] {
        ir::Function f = figure5a();
        ir::verifyOrDie(f);
        std::printf("Figure 5(a): flowgraph before region formation\n");
        std::printf("%s\n", ir::toString(f).c_str());

        core::RegionConfig config;
        const auto selected = core::selectBoundaries(f, config);
        std::printf("Selected region boundaries (Algorithm 1):");
        for (int b : selected)
            std::printf(" b%d", b);
        std::printf("\n\n");

        const auto stats = core::formRegions(f, config);
        ir::verifyOrDie(f);
        std::printf("Figure 5(b): after formation\n");
        std::printf("%s\n", ir::toString(f).c_str());

        TextTable table({"metric", "value"});
        table.addRow({"regions formed",
                      std::to_string(stats.regionsFormed)});
        table.addRow({"blocks replicated",
                      std::to_string(stats.blocksReplicated)});
        table.addRow({"asserts created (cold edges)",
                      std::to_string(stats.assertsCreated)});
        table.addRow({"region exits (aregion_end)",
                      std::to_string(stats.regionExits)});
        table.addRow({"partially unrolled regions",
                      std::to_string(stats.unrolledRegions)});
        std::printf("%s\n", table.render().c_str());
        return table;
    };
}

/** Table 1: the baseline processor parameters, as actually
 *  configured in the timing and functional models, next to the
 *  paper's values. Runs no experiment. */
inline Render
table1(Grid &)
{
    return [] {
        const hw::TimingConfig t = hw::TimingConfig::baseline();
        const hw::HwConfig h;

        std::printf("Table 1: baseline processor parameters\n\n");
        TextTable table({"parameter", "model", "paper"});
        table.addRow({"Processor frequency", "4.0 GHz (cycle-based)",
                      "4.0 GHz"});
        table.addRow({"Rename/issue/retire width",
                      std::to_string(t.width) + "/" +
                          std::to_string(t.width) + "/" +
                          std::to_string(t.width),
                      "4/4/4"});
        table.addRow({"Branch mispred. penalty",
                      std::to_string(t.mispredictPenalty) + " cycles",
                      "20 cycles"});
        table.addRow({"Instruction window size",
                      std::to_string(t.robSize), "128"});
        table.addRow({"Scheduling window size",
                      std::to_string(t.schedWindow), "64"});
        table.addRow({"Branch predictor",
                      "combine: 64K gshare/16K bimod",
                      "combine: 64K gshare/16K bimod"});
        table.addRow({"Hardware data prefetcher",
                      t.prefetcher ? "stream (next-line)" : "off",
                      "stream-based (16 streams)"});
        table.addRow({"L1 data cache",
                      "32 KB, " + std::to_string(t.l1Assoc) + "-way, " +
                          std::to_string(t.l1Latency) +
                          " cycle hit, 64B line",
                      "32 KB, 4-way, 4 cycle hit, 64B line"});
        table.addRow({"L2 unified cache",
                      "4 MB, " + std::to_string(t.l2Assoc) + "-way, " +
                          std::to_string(t.l2Latency) + " cycle hit",
                      "4 MB, 8-way, 20 cycle hit, 64B line"});
        table.addRow({"Memory latency",
                      std::to_string(t.memLatency) +
                          " cycles (100 ns at 4 GHz)",
                      "100 ns"});
        table.addRow({"Speculative footprint bound",
                      std::to_string(h.l1Lines) + " lines, " +
                          std::to_string(h.l1Assoc) + " ways/set",
                      "L1-resident (best effort)"});
        std::printf("%s\n", table.render().c_str());
        std::printf("Differences from the paper's simulator (trace "
                    "cache, TLBs, load/store\nbuffer sizes) are "
                    "documented in DESIGN.md: instruction fetch is\n"
                    "modeled as ideal, so those structures have no "
                    "effect here.\n");
        return table;
    };
}

/** Table 2: the benchmarks used in the evaluation, their
 *  descriptions, and the number of samples per benchmark, plus the
 *  dynamic size of each workload as built. Runs no experiment. */
inline Render
table2(Grid &)
{
    return [] {
        std::printf("Table 2: DaCapo benchmark analogs used in "
                    "evaluation\n");
        std::printf("(# = samples, as in the paper; sizes are measured "
                    "on the measurement input)\n\n");
        TextTable table({"bench", "description", "#", "(paper #)",
                         "bytecodes", "methods"});
        for (const auto &w : wl::dacapoSuite()) {
            const vm::Program prog = w.build(false);
            vm::Interpreter interp(prog);
            const auto res = interp.run();
            table.addRow({w.name, w.description,
                          std::to_string(w.samples.size()),
                          "(" + std::to_string(w.paperSamples) + ")",
                          std::to_string(res.instructions),
                          std::to_string(prog.numMethods())});
        }
        std::printf("%s\n", table.render().c_str());
        std::printf("Each analog reproduces the structural features the "
                    "paper attributes to the\noriginal benchmark (see "
                    "the per-workload headers in src/workloads/).\n");
        return table;
    };
}

/** Figure 7/8's measured columns, in paperConfigs() order after the
 *  no-atomic baseline each is compared against. */
inline const std::vector<std::string> &
comparedConfigs()
{
    static const std::vector<std::string> names{
        "atomic", "no-atomic+aggr-inline", "atomic+aggr-inline"};
    return names;
}

/**
 * Figure 7: execution-time speedup over the baseline (no-atomic)
 * binary for the `atomic`, `no-atomic + aggressive inlining`, and
 * `atomic + aggressive inlining` configurations, plus the jython
 * forced-monomorphic grey bar. All runs use the same Table 1
 * hardware; differences come from code quality alone.
 */
inline Render
fig7(Grid &grid)
{
    Runs runs(grid);
    for (const wl::Workload &w : wl::dacapoSuite()) {
        for (const core::CompilerConfig &cc :
             paperConfigs(w.name == "jython"))
            runs.add(w, experiment(cc));
    }
    return [runs]() mutable {
        // Paper Figure 7 speedups (percent, eyeballed).
        const std::map<std::string, std::map<std::string, double>> paper{
            {"antlr", {{"atomic", 17}, {"no-atomic+aggr-inline", 5},
                       {"atomic+aggr-inline", 22}}},
            {"bloat", {{"atomic", 13}, {"no-atomic+aggr-inline", 10},
                       {"atomic+aggr-inline", 32}}},
            {"fop", {{"atomic", 2}, {"no-atomic+aggr-inline", 2},
                     {"atomic+aggr-inline", 5}}},
            {"hsqldb", {{"atomic", 25}, {"no-atomic+aggr-inline", 16},
                        {"atomic+aggr-inline", 56}}},
            {"jython", {{"atomic", -9}, {"no-atomic+aggr-inline", 14},
                        {"atomic+aggr-inline", 35}}},
            {"pmd", {{"atomic", -3}, {"no-atomic+aggr-inline", 1},
                     {"atomic+aggr-inline", 2}}},
            {"xalan", {{"atomic", 26}, {"no-atomic+aggr-inline", 5},
                       {"atomic+aggr-inline", 25}}},
        };
        TextTable table({"bench", "atomic", "(paper)",
                         "no-atomic+aggr", "(paper)", "atomic+aggr",
                         "(paper)"});
        std::map<std::string, std::vector<double>> averages;

        std::printf("Figure 7: %% speedup over baseline (no-atomic) "
                    "binary\n");
        std::printf("(paper values in parentheses; same hardware, "
                    "different compilers)\n\n");

        for (const wl::Workload &w : wl::dacapoSuite()) {
            const rt::RunMetrics &base = runs.next();
            std::vector<std::string> row{w.name};
            for (const std::string &config : comparedConfigs()) {
                const double measured = speedupPct(base, runs.next());
                row.push_back(TextTable::fmt(measured, 1) + "%");
                row.push_back("(" +
                              TextTable::fmt(paper.at(w.name).at(config),
                                             0) +
                              "%)");
                averages[config].push_back(measured);
            }
            table.addRow(std::move(row));
            if (w.name == "jython") {
                const double forced = speedupPct(base, runs.next());
                table.addRow({"jython*", TextTable::fmt(forced, 1) + "%",
                              "(10%)", "-", "-", "-", "-"});
            }
        }

        std::vector<std::string> avg_row{"average"};
        const std::map<std::string, double> paper_avg{
            {"atomic", 10.2}, {"no-atomic+aggr-inline", 7.5},
            {"atomic+aggr-inline", 25.3}};
        for (const std::string &config : comparedConfigs()) {
            avg_row.push_back(
                TextTable::fmt(mean(averages[config]), 1) + "%");
            avg_row.push_back("(" +
                              TextTable::fmt(paper_avg.at(config), 1) +
                              "%)");
        }
        table.addRow(std::move(avg_row));

        std::printf("%s\n", table.render().c_str());
        std::printf("jython* = atomic with the forced-monomorphic "
                    "partial-inlining fix (the grey bar).\n");
        return table;
    };
}

/**
 * Figure 8: percentage reduction in retired micro-operations
 * relative to the baseline (no-atomic) binary. The paper reads uop
 * reduction as a proxy for energy efficiency.
 */
inline Render
fig8(Grid &grid)
{
    Runs runs(grid);
    for (const wl::Workload &w : wl::dacapoSuite()) {
        for (const core::CompilerConfig &cc : paperConfigs())
            runs.add(w, experiment(cc));
    }
    return [runs]() mutable {
        // Paper Figure 8 values (eyeballed).
        const std::map<std::string, std::map<std::string, double>> paper{
            {"antlr", {{"atomic", 17}, {"no-atomic+aggr-inline", 2},
                       {"atomic+aggr-inline", 17}}},
            {"bloat", {{"atomic", 6}, {"no-atomic+aggr-inline", 3},
                       {"atomic+aggr-inline", 15}}},
            {"fop", {{"atomic", 2}, {"no-atomic+aggr-inline", 1},
                     {"atomic+aggr-inline", 4}}},
            {"hsqldb", {{"atomic", 11}, {"no-atomic+aggr-inline", 5},
                        {"atomic+aggr-inline", 21}}},
            {"jython", {{"atomic", 2}, {"no-atomic+aggr-inline", 5},
                        {"atomic+aggr-inline", 14}}},
            {"pmd", {{"atomic", 1}, {"no-atomic+aggr-inline", 1},
                     {"atomic+aggr-inline", 2}}},
            {"xalan", {{"atomic", 14}, {"no-atomic+aggr-inline", 2},
                       {"atomic+aggr-inline", 14}}},
        };

        std::printf("Figure 8: %% micro-operation (uop) reduction over "
                    "baseline (no-atomic)\n");
        std::printf("(paper values in parentheses)\n\n");

        TextTable table({"bench", "atomic", "(paper)",
                         "no-atomic+aggr", "(paper)", "atomic+aggr",
                         "(paper)"});
        std::map<std::string, std::vector<double>> averages;
        for (const wl::Workload &w : wl::dacapoSuite()) {
            const rt::RunMetrics &base = runs.next();
            std::vector<std::string> row{w.name};
            for (const std::string &config : comparedConfigs()) {
                const double measured =
                    uopReductionPct(base, runs.next());
                row.push_back(TextTable::fmt(measured, 1) + "%");
                row.push_back("(" +
                              TextTable::fmt(paper.at(w.name).at(config),
                                             0) +
                              "%)");
                averages[config].push_back(measured);
            }
            table.addRow(std::move(row));
        }
        std::vector<std::string> avg_row{"average"};
        for (const std::string &config : comparedConfigs()) {
            avg_row.push_back(
                TextTable::fmt(mean(averages[config]), 1) + "%");
            avg_row.push_back(config == "atomic+aggr-inline" ? "(11%)"
                                                             : "(-)");
        }
        table.addRow(std::move(avg_row));
        std::printf("%s\n", table.render().c_str());
        return table;
    };
}

/**
 * Table 3: atomic region statistics for the atomic+aggressive-inline
 * configuration — region coverage (fraction of retired uops inside
 * regions), unique executed regions, average dynamic region size,
 * abort percentage, and aborts per 1,000 uops.
 */
inline Render
table3(Grid &grid)
{
    Runs runs(grid);
    for (const wl::Workload &w : wl::dacapoSuite())
        runs.add(w, experiment(core::CompilerConfig::atomicAggressiveInline()));
    return [runs]() mutable {
        // Paper Table 3: coverage %, unique, size, abort %, per-1k.
        struct PaperRow
        {
            double coveragePct;
            int unique;
            int size;
            double abortPct;
            double abortsPer1k;
        };
        const std::map<std::string, PaperRow> paper{
            {"antlr", {9, 96, 47, 0.02, 0.0004}},
            {"bloat", {69, 93, 128, 4.3, 0.12}},
            {"fop", {20, 73, 32, 0.01, 0.0007}},
            {"hsqldb", {76, 75, 88, 2.74, 0.24}},
            {"jython", {87, 14, 227, 0.69, 0.27}},
            {"pmd", {32, 32, 42, 2.2, 0.18}},
            {"xalan", {78, 37, 78, 0.28, 0.03}},
        };
        std::printf("Table 3: atomic region statistics "
                    "(atomic+aggressive-inline)\n");
        std::printf("(paper values in parentheses)\n\n");

        TextTable table({"bench", "coverage", "(p)", "unique", "(p)",
                         "size", "(p)", "abort%", "(p)", "per-1k",
                         "(p)"});
        for (const wl::Workload &w : wl::dacapoSuite()) {
            const rt::RunMetrics &m = runs.next();
            const PaperRow &p = paper.at(w.name);
            table.addRow({
                w.name,
                TextTable::pct(m.coverage, 0),
                "(" + TextTable::fmt(p.coveragePct, 0) + "%)",
                std::to_string(m.uniqueRegions),
                "(" + std::to_string(p.unique) + ")",
                TextTable::fmt(m.avgRegionSize, 0),
                "(" + std::to_string(p.size) + ")",
                TextTable::pct(m.abortPct, 2),
                "(" + TextTable::fmt(p.abortPct, 2) + "%)",
                TextTable::fmt(m.abortsPer1kUops, 3),
                "(" + TextTable::fmt(p.abortsPer1k, 4) + ")",
            });
        }
        std::printf("%s\n", table.render().c_str());
        std::printf("coverage: retired uops inside atomic regions.\n"
                    "size: mean dynamic uops per committed region.\n");
        return table;
    };
}

/**
 * Section 6.2's architectural analysis: dynamic region sizes versus
 * the 128-entry reorder buffer, and speculative cache footprints
 * versus the L1. The paper's findings to reproduce:
 *  - a nontrivial fraction (~25%) of executed regions exceed the
 *    128-entry window (so register checkpoints are required),
 *  - some regions exceed 1,000 uops,
 *  - most regions touch < 10 cache lines; 50 lines cover 99%;
 *    overflow is essentially never triggered (512-line L1).
 */
inline Render
sec62(Grid &grid)
{
    Runs runs(grid);
    for (const wl::Workload &w : wl::dacapoSuite())
        runs.add(w, experiment(core::CompilerConfig::atomicAggressiveInline()));
    return [runs]() mutable {
        Histogram sizes;
        Histogram footprints;
        uint64_t total_regions = 0;
        uint64_t overflow_aborts = 0;
        for (size_t i = 0; i < wl::dacapoSuite().size(); ++i) {
            for (const auto &[key, stats] : runs.next().machine.regions) {
                for (const auto &[v, c] : stats.dynamicSize.buckets())
                    sizes.add(v, c);
                for (const auto &[v, c] : stats.footprintLines.buckets())
                    footprints.add(v, c);
                total_regions += stats.commits;
                overflow_aborts += stats.abortsByCause[
                    static_cast<int>(hw::AbortCause::Overflow)];
            }
        }

        std::printf("Section 6.2: architectural analysis of atomic "
                    "regions\n(atomic+aggressive-inline across the "
                    "suite)\n\n");
        TextTable table({"metric", "measured", "paper"});
        table.addRow({"committed regions",
                      std::to_string(total_regions), "~1.7M"});
        table.addRow({"median region size (uops)",
                      std::to_string(sizes.percentile(0.5)), "-"});
        table.addRow({"mean region size (uops)",
                      TextTable::fmt(sizes.mean(), 1), "-"});
        table.addRow({"regions > 128-uop window",
                      TextTable::pct(
                          static_cast<double>(sizes.countAbove(128)) /
                              std::max<double>(1.0, static_cast<double>(
                                  sizes.count())), 1),
                      "~25%"});
        table.addRow({"regions > 1000 uops",
                      std::to_string(sizes.countAbove(1000)),
                      "a small fraction"});
        table.addRow({"median footprint (64B lines)",
                      std::to_string(footprints.percentile(0.5)),
                      "< 10"});
        table.addRow({"99th pct footprint (lines)",
                      std::to_string(footprints.percentile(0.99)),
                      "<= 50"});
        table.addRow({"regions > 100 lines",
                      std::to_string(footprints.countAbove(100)),
                      "110 of 1.7M"});
        table.addRow({"L1 overflow aborts",
                      std::to_string(overflow_aborts), "1"});
        std::printf("%s\n", table.render().c_str());
        std::printf("Conclusion to check: register checkpoints are "
                    "needed (regions exceed the\nwindow) but the L1 "
                    "easily holds every read/write set.\n");
        return table;
    };
}

/** Queue baseline and atomic+aggressive-inline code on every analog
 *  under each machine, in that (workload, machine, code) order. */
inline Runs
requestMachines(Grid &grid, const std::vector<hw::TimingConfig> &machines)
{
    Runs runs(grid);
    for (const wl::Workload &w : wl::dacapoSuite()) {
        for (const hw::TimingConfig &machine : machines) {
            for (const core::CompilerConfig &cc :
                 {core::CompilerConfig::baseline(),
                  core::CompilerConfig::atomicAggressiveInline()})
                runs.add(w, experiment(cc, machine));
        }
    }
    return runs;
}

/**
 * Figure 9: sensitivity of the atomic+aggressive-inline
 * configuration to the hardware implementation of the atomic
 * primitives. All runs use the same code on three machines: the
 * non-stalling checkpoint substrate, a 20-cycle pipeline stall at
 * every aregion_begin, and a single-in-flight-region decode stall.
 * The paper's finding: both degraded implementations erase nearly
 * all of the benefit, except for antlr (sparse region use).
 */
inline Render
fig9(Grid &grid)
{
    const std::vector<hw::TimingConfig> machines{
        hw::TimingConfig::baseline(), hw::TimingConfig::stallBegin(),
        hw::TimingConfig::singleInflight()};
    return [runs = requestMachines(grid, machines),
            n = machines.size()]() mutable {
        // Paper Figure 9 (eyeballed; % speedup over baseline binary).
        const std::map<std::string, std::vector<double>> paper{
            {"antlr", {22, 18, 15}},  {"bloat", {32, 5, -5}},
            {"fop", {5, 0, -2}},      {"hsqldb", {56, 10, 2}},
            {"jython", {35, 3, -8}},  {"pmd", {2, -6, -10}},
            {"xalan", {25, 2, -10}},
        };

        std::printf("Figure 9: sensitivity to the hardware atomic "
                    "primitive implementation\n");
        std::printf("(%% speedup of atomic+aggr-inline code over the "
                    "baseline binary; paper in parens)\n\n");

        TextTable table({"bench", "chkpt", "(p)", "+20-cycle", "(p)",
                         "single-inflight", "(p)"});
        std::vector<std::vector<double>> averages(n);
        for (const wl::Workload &w : wl::dacapoSuite()) {
            std::vector<std::string> row{w.name};
            for (size_t m = 0; m < n; ++m) {
                const rt::RunMetrics &base = runs.next();
                const double measured = speedupPct(base, runs.next());
                row.push_back(TextTable::fmt(measured, 1) + "%");
                row.push_back("(" +
                              TextTable::fmt(paper.at(w.name)[m], 0) +
                              "%)");
                averages[m].push_back(measured);
            }
            table.addRow(std::move(row));
        }
        std::vector<std::string> avg{"average"};
        for (size_t m = 0; m < n; ++m) {
            avg.push_back(TextTable::fmt(mean(averages[m]), 1) + "%");
            avg.push_back("(-)");
        }
        table.addRow(std::move(avg));
        std::printf("%s\n", table.render().c_str());
        std::printf("Both degraded primitives must erase most of the "
                    "benefit (the paper's Section 6.3 finding).\n");
        return table;
    };
}

/**
 * Section 6.3's modest-microarchitecture experiment: the relative
 * speedups of atomic-region code must closely track the 4-wide
 * results on a 2-wide OOO machine and on a 2-wide machine with
 * halved structures and caches ("within a percent or two").
 */
inline Render
sec63(Grid &grid)
{
    const std::vector<hw::TimingConfig> machines{
        hw::TimingConfig::baseline(), hw::TimingConfig::twoWide(),
        hw::TimingConfig::twoWideHalf()};
    return [runs = requestMachines(grid, machines),
            n = machines.size()]() mutable {
        std::printf("Section 6.3: atomic+aggr-inline speedup across "
                    "machine widths\n\n");
        TextTable table({"bench", "4-wide", "2-wide", "2-wide-half"});
        std::vector<std::vector<double>> averages(n);
        for (const wl::Workload &w : wl::dacapoSuite()) {
            std::vector<std::string> row{w.name};
            for (size_t m = 0; m < n; ++m) {
                const rt::RunMetrics &base = runs.next();
                const double s = speedupPct(base, runs.next());
                row.push_back(TextTable::fmt(s, 1) + "%");
                averages[m].push_back(s);
            }
            table.addRow(std::move(row));
        }
        std::vector<std::string> avg{"average"};
        for (size_t m = 0; m < n; ++m)
            avg.push_back(TextTable::fmt(mean(averages[m]), 1) + "%");
        table.addRow(std::move(avg));
        std::printf("%s\n", table.render().c_str());
        std::printf("The paper reports the narrow machines track the "
                    "4-wide speedups\n(generally within a percent or "
                    "two).\n");
        return table;
    };
}

/**
 * Ablation (paper Section 7): adaptive recompilation. pmd's
 * measurement input violates rules far more often than its profiling
 * input, so the compiler's asserts fire and the atomic configuration
 * loses performance. With the adaptive controller enabled, the
 * runtime maps abort PCs back to the offending cold branches,
 * recompiles them as real branches, and recovers.
 */
inline Render
ablationAdaptive(Grid &grid)
{
    const std::vector<std::string> names{"pmd", "bloat", "hsqldb"};
    Runs runs(grid);
    for (const std::string &name : names) {
        const wl::Workload &w = wl::workloadByName(name);
        runs.add(w, experiment(core::CompilerConfig::baseline()));
        for (bool adaptive : {false, true}) {
            rt::ExperimentConfig config =
                experiment(core::CompilerConfig::atomicAggressiveInline());
            config.adaptiveRecompile = adaptive;
            runs.add(w, std::move(config));
        }
    }
    return [runs, names]() mutable {
        std::printf("Ablation: adaptive recompilation on abort-heavy "
                    "workloads (Section 7)\n\n");
        TextTable table({"bench", "mode", "speedup", "abort%",
                         "recompiled"});
        for (const std::string &name : names) {
            const rt::RunMetrics &mb = runs.next();
            for (bool adaptive : {false, true}) {
                const rt::RunMetrics &m = runs.next();
                table.addRow({name, adaptive ? "adaptive" : "static",
                              TextTable::fmt(speedupPct(mb, m), 1) + "%",
                              TextTable::pct(m.abortPct, 2),
                              m.recompiled ? "yes" : "no"});
            }
        }
        std::printf("%s\n", table.render().c_str());
        std::printf("Expected: adaptive recompilation removes the "
                    "drifted asserts, cutting the\nabort rate and "
                    "recovering (or improving) the speedup.\n");
        return table;
    };
}

/**
 * Ablation (paper Section 7, future work): post-dominance bounds
 * check elimination inside atomic regions. A check A may be removed
 * when a subsuming check B (same length, index + k) post-dominates
 * it within the region — safe because a failing B aborts and the
 * non-speculative code re-runs both checks precisely.
 */
inline Render
ablationPostdom(Grid &grid)
{
    std::vector<core::CompilerConfig> configs;
    Runs runs(grid);
    for (bool enabled : {false, true}) {
        configs.push_back(core::CompilerConfig::atomic());
        configs.back().postdomCheckElim = enabled;
        runs.add(addElementSample(), experiment(configs.back()));
    }
    return [runs, configs]() mutable {
        const vm::Program prog = addElementSample().build(false);
        std::printf("Ablation: post-dominance check elimination in "
                    "regions (Section 7)\n\n");
        TextTable table({"config", "in-region bounds checks",
                         "postdom-removed", "uops/insert"});
        for (const core::CompilerConfig &config : configs) {
            const core::Compiled compiled = compileProfiled(prog, config);
            int in_region_checks = 0;
            for (const auto &[m, f] : compiled.mod.funcs) {
                for (int b = 0; b < f.numBlocks(); ++b) {
                    if (f.block(b).regionId < 0)
                        continue;
                    for (const auto &in : f.block(b).instrs)
                        in_region_checks += in.op == ir::Op::BoundsCheck;
                }
            }
            table.addRow({config.postdomCheckElim ? "postdom on"
                                                  : "postdom off",
                          std::to_string(in_region_checks),
                          std::to_string(
                              compiled.stats.postdomChecksRemoved),
                          TextTable::fmt(
                              static_cast<double>(
                                  runs.next().retiredUops) /
                                  (2 * 3000), 1)});
        }
        std::printf("%s\n", table.render().c_str());
        std::printf("Output correctness under the extension is covered "
                    "by tests/core_region_test\n(Postdom.*).\n");
        return table;
    };
}

/**
 * Ablation: the region size target R (= LOOPPATHTHRESHOLD; the paper
 * sets both to 200 HIR operations, Section 4). Sweeping R shows the
 * trade-off the paper's Equation 1 balances: small regions waste
 * begin/end overhead and forgo cross-iteration redundancy; oversized
 * regions risk footprint overflow and amplify abort cost.
 */
inline Render
ablationRegionSize(Grid &grid)
{
    const std::vector<std::string> names{"xalan", "hsqldb", "jython"};
    const std::vector<double> sweep{25.0, 50.0, 100.0,
                                    200.0, 400.0, 800.0};
    // One baseline per workload (it does not depend on R), then one
    // request per (R, workload).
    Runs runs(grid);
    for (const std::string &name : names) {
        runs.add(wl::workloadByName(name),
                 experiment(core::CompilerConfig::baseline()));
    }
    for (const double r : sweep) {
        for (const std::string &name : names) {
            rt::ExperimentConfig config =
                experiment(core::CompilerConfig::atomicAggressiveInline());
            config.compiler.region.targetSize = r;
            config.compiler.region.loopPathThreshold = r;
            runs.add(wl::workloadByName(name), std::move(config));
        }
    }
    return [runs, n = names.size(), sweep]() mutable {
        std::printf("Ablation: region size target R "
                    "(atomic+aggr-inline, xalan + hsqldb + jython)\n\n");
        TextTable table({"R", "avg speedup", "avg region size",
                         "abort%", "overflow aborts"});
        std::vector<const rt::RunMetrics *> bases;
        for (size_t wi = 0; wi < n; ++wi)
            bases.push_back(&runs.next());
        for (const double r : sweep) {
            std::vector<double> speedups;
            double sizes = 0;
            double aborts = 0;
            uint64_t overflows = 0;
            for (size_t wi = 0; wi < n; ++wi) {
                const rt::RunMetrics &m = runs.next();
                speedups.push_back(speedupPct(*bases[wi], m));
                sizes += m.avgRegionSize;
                aborts += m.abortPct;
                for (const auto &[key, stats] : m.machine.regions) {
                    overflows += stats.abortsByCause[
                        static_cast<int>(hw::AbortCause::Overflow)];
                }
            }
            table.addRow({TextTable::fmt(r, 0),
                          TextTable::fmt(mean(speedups), 1) + "%",
                          TextTable::fmt(sizes / n, 0),
                          TextTable::pct(aborts / n, 2),
                          std::to_string(overflows)});
        }
        std::printf("%s\n", table.render().c_str());
        std::printf("The paper picks R = 200 as large enough for "
                    "optimization scope without\nsacrificing the "
                    "best-effort footprint bound.\n");
        return table;
    };
}

/** Queue, per named analog, the baseline plus atomic+aggressive-
 *  inline code with one compiler switch off and then on. */
inline Runs
requestSwitch(Grid &grid, const std::vector<std::string> &names,
              bool core::CompilerConfig::*flag)
{
    Runs runs(grid);
    for (const std::string &name : names) {
        const wl::Workload &w = wl::workloadByName(name);
        runs.add(w, experiment(core::CompilerConfig::baseline()));
        for (bool on : {false, true}) {
            core::CompilerConfig cc =
                core::CompilerConfig::atomicAggressiveInline();
            cc.*flag = on;
            runs.add(w, experiment(cc));
        }
    }
    return runs;
}

/**
 * Ablation: speculative lock elision on/off inside the atomic
 * configuration, isolating how much of each benchmark's win comes
 * from eliding monitor pairs (the paper attributes much of antlr's
 * and xalan's benefit to monitor-overhead elimination).
 */
inline Render
ablationSle(Grid &grid)
{
    std::vector<std::string> names;
    for (const wl::Workload &w : wl::dacapoSuite())
        names.push_back(w.name);
    return [runs = requestSwitch(grid, names, &core::CompilerConfig::sle),
            names]() mutable {
        std::printf("Ablation: speculative lock elision (atomic+aggr "
                    "configuration)\n\n");
        TextTable table({"bench", "speedup w/o SLE", "speedup w/ SLE",
                         "CAS fast-path acquisitions w/o -> w/"});
        for (const std::string &name : names) {
            const rt::RunMetrics &mb = runs.next();
            const rt::RunMetrics &moff = runs.next();
            const rt::RunMetrics &mon = runs.next();
            table.addRow({name,
                          TextTable::fmt(speedupPct(mb, moff), 1) + "%",
                          TextTable::fmt(speedupPct(mb, mon), 1) + "%",
                          std::to_string(moff.monitorFastEnters) +
                              " -> " +
                              std::to_string(mon.monitorFastEnters)});
        }
        std::printf("%s\n", table.render().c_str());
        return table;
    };
}

/**
 * Ablation (paper Section 6.4): eliding GC safepoint polls inside
 * atomic regions. The paper attempted this and was blocked by a
 * register-allocator interaction; on this substrate the
 * transformation is clean (timer interrupts abort in-flight regions,
 * bounding preemption latency), so the ablation shows the benefit
 * the authors were reaching for.
 */
inline Render
ablationSafepoint(Grid &grid)
{
    const std::vector<std::string> names{"xalan", "hsqldb", "jython",
                                         "bloat"};
    return [runs = requestSwitch(
                grid, names,
                &core::CompilerConfig::elideSafepointsInRegions),
            names]() mutable {
        std::printf("Ablation: safepoint elision inside regions "
                    "(Section 6.4)\n\n");
        TextTable table({"bench", "speedup w/o elision",
                         "speedup w/ elision"});
        for (const std::string &name : names) {
            const rt::RunMetrics &mb = runs.next();
            const rt::RunMetrics &moff = runs.next();
            const rt::RunMetrics &mon = runs.next();
            table.addRow({name,
                          TextTable::fmt(speedupPct(mb, moff), 1) + "%",
                          TextTable::fmt(speedupPct(mb, mon), 1) + "%"});
        }
        std::printf("%s\n", table.render().c_str());
        std::printf("Preemption stays bounded: timer interrupts abort "
                    "in-flight regions, and the\nnon-speculative "
                    "version keeps its polls.\n");
        return table;
    };
}

/** Queue every figure's requests on `grid`, in print order; returns
 *  their render steps. */
inline std::vector<Figure>
planPaper(Grid &grid)
{
    return {
        {"fig1", fig1(grid)},
        {"fig3", fig3(grid)},
        {"fig5", fig5(grid)},
        {"table1", table1(grid)},
        {"table2", table2(grid)},
        {"fig7", fig7(grid)},
        {"fig8", fig8(grid)},
        {"table3", table3(grid)},
        {"sec62", sec62(grid)},
        {"fig9", fig9(grid)},
        {"sec63", sec63(grid)},
        {"ablation_adaptive", ablationAdaptive(grid)},
        {"ablation_postdom", ablationPostdom(grid)},
        {"ablation_region_size", ablationRegionSize(grid)},
        {"ablation_sle", ablationSle(grid)},
        {"ablation_safepoint", ablationSafepoint(grid)},
    };
}

} // namespace aregion::bench

#endif // AREGION_BENCH_FIGURES_HH

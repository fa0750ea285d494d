/**
 * @file
 * The optimizing compiler driver: translation, inlining, classic
 * optimization, and (when enabled) atomic region formation with its
 * dependent optimizations (partial inlining, partial unrolling,
 * speculative lock elision, post-dominance check elimination).
 *
 * The four configurations evaluated in the paper's Figures 7/8 map
 * onto factory functions: baseline(), atomic(),
 * baselineAggressiveInline(), atomicAggressiveInline().
 */

#ifndef AREGION_CORE_COMPILER_HH
#define AREGION_CORE_COMPILER_HH

#include <functional>

#include "core/region_formation.hh"
#include "ir/ir.hh"
#include "opt/pass.hh"
#include "vm/profile.hh"
#include "vm/program.hh"

namespace aregion::core {

/** Complete compiler configuration. */
struct CompilerConfig
{
    std::string name = "baseline";

    /** Enable atomic region formation and dependent optimizations. */
    bool atomicRegions = false;
    bool sle = true;                    ///< within atomic mode
    bool postdomCheckElim = false;      ///< Section 7 extension
    bool elideSafepointsInRegions = false; ///< Section 6.4 extension

    /** Inline budget multiplier (paper's "aggressive" = 5x). */
    double inlineMultiplier = 1.0;

    /** Treat effectively-monomorphic sites as monomorphic even when
     *  their caller-blind profile looks polymorphic (the jython grey
     *  bar in Figure 7). */
    bool forceMonomorphic = false;

    RegionConfig region;
    opt::OptContext opt;    ///< profile is filled by compileProgram

    static CompilerConfig baseline();
    static CompilerConfig atomic();
    static CompilerConfig baselineAggressiveInline();
    static CompilerConfig atomicAggressiveInline();

    bool operator==(const CompilerConfig &) const = default;
};

/** Static compilation statistics. */
struct CompileStats
{
    RegionStats regions;
    int slePairsElided = 0;
    int postdomChecksRemoved = 0;
    int safepointsElided = 0;
    int totalInstrs = 0;
    int funcsWithRegions = 0;

    bool operator==(const CompileStats &) const = default;
};

struct Compiled
{
    ir::Module mod;
    CompileStats stats;
};

/** compileProgram's stages, in run order. Every configuration runs
 *  the first three; atomic mode adds Regions, Sle (when `sle`),
 *  RegionScalar and Postdom (when `postdomCheckElim`). */
enum class Stage
{
    Translate,      ///< bytecode -> IR
    InlineScalar,   ///< inline fixpoint with the scalar pipeline
    Unroll,         ///< baseline unrolling: the baseline's final module
    Regions,        ///< atomic region formation
    Sle,            ///< speculative lock elision
    RegionScalar,   ///< scalar pipeline over the isolated hot paths
    Postdom,        ///< post-dominance check elimination
};

/** "translate", "inline+scalar", "unroll", "regions", "sle",
 *  "region-scalar" or "postdom". */
const char *stageName(Stage stage);

/** Sees the whole module after each stage that runs. */
using StageObserver = std::function<void(Stage, const ir::Module &)>;

/** Compile the whole program under the given configuration; `observe`
 *  (when set) is called after every stage. */
Compiled compileProgram(const vm::Program &prog,
                        const vm::Profile &profile,
                        const CompilerConfig &config,
                        const StageObserver &observe = {});

} // namespace aregion::core

#endif // AREGION_CORE_COMPILER_HH

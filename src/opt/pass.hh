/**
 * @file
 * Pass declarations and pipeline drivers.
 *
 * Every pass here is a *non-speculative* formulation — correct over
 * all CFG paths with no knowledge of atomic regions beyond generic
 * facts (e.g. Assert is essential for DCE; monitor/safepoint
 * instructions inside an isolated region do not invalidate loads).
 * That property is the paper's central claim: converting cold edges
 * into asserts lets these same passes perform speculative
 * optimizations with zero new pass code.
 *
 * The scalar passes run on SSA form: runScalarPipeline builds SSA,
 * cycles simplify/sccp/gvn/dce until four passes in a row report no
 * change (the fixpoint), and lowers back out of SSA before returning,
 * so callers (region formation, translation, machine-code emission)
 * never see phis. The structural passes (inlining, unrolling) operate
 * on conventional form.
 */

#ifndef AREGION_OPT_PASS_HH
#define AREGION_OPT_PASS_HH

#include <vector>

#include "ir/ir.hh"
#include "vm/profile.hh"

namespace aregion::opt {

/** Tunables shared by the pipeline. compileProgram derives them
 *  from its core::CompilerConfig; the defaults are the baseline's. */
struct OptContext
{
    const vm::Profile *profile = nullptr;

    /** Max callee size (IR instrs) eligible for inlining. The
     *  paper's "aggressive" configurations scale these by 5x. */
    int inlineCalleeLimit = 40;
    /** Max per-function growth (IR instrs) per inlining sweep. */
    int inlineGrowthLimit = 450;
    /** Receiver bias needed to devirtualize a virtual call site. */
    double devirtBias = 0.95;
    /** Partial-inlining criterion (paper Section 6.1): refuse to
     *  inline callees containing polymorphic virtual call sites. */
    bool refusePolymorphicCallees = false;
    /** Treat every profiled virtual site as effectively monomorphic
     *  (the jython grey-bar experiment). */
    bool assumeMonomorphic = false;
    /** Atomic-mode partial inlining (region formation Step 1): a
     *  callee whose hot body will be fully encapsulated in a region
     *  (no loops, no warm calls, no polymorphic sites) may be
     *  inlined up to this size even when it exceeds
     *  inlineCalleeLimit. 0 disables. */
    int partialInlineLimit = 0;
    /** Baseline loop unrolling (factor 2) body size limit; 0 = off. */
    int unrollBodyLimit = 24;
    /** Scalar pipeline bound, in rounds of its four passes:
     *  runScalarPipeline runs at most maxScalarIters x 4 passes. */
    int maxScalarIters = 8;

    bool operator==(const OptContext &) const = default;
};

/** CFG cleanup: thread trivial jumps, merge straight-line chains
 *  (one walk folds a whole chain), collapse same-target branches,
 *  drop unreachable blocks. Phi-aware; runs on SSA and conventional
 *  form alike. Returns false only if the function is untouched. */
bool simplifyCfg(ir::Function &func);

/** Sparse conditional constant propagation (SSA only): constant and
 *  copy lattices over executable edges, folding, algebraic
 *  identities, constant-branch elimination, dead asserts/checks, and
 *  copy forwarding (subsumes the old constant-fold + copy-prop
 *  pair). */
bool sccp(ir::Function &func);

/** Global value numbering over available expressions (SSA only):
 *  arithmetic, loads with field-sensitive kills and store-to-load
 *  forwarding, safety checks, asserts. GEN/KILL sets are built in a
 *  single scan per block and merged by bitvector dataflow, replacing
 *  the quadratic per-query predecessor re-simulation of the old CSE.
 *  The isolation guarantee of atomic regions is honoured: safepoints
 *  and monitor operations kill loads only outside regions. */
bool gvn(ir::Function &func);

/** Mark-and-sweep dead code elimination (asserts and checks are
 *  essential and never removed here). Exact in SSA form — dead phi
 *  cycles are removed — and conservative on conventional form. */
bool deadCodeElim(ir::Function &func);

/** Profile-guided inlining of static calls plus guarded
 *  devirtualization of monomorphic virtual call sites (module
 *  level). Requires conventional (non-SSA) form. When `touched` is
 *  non-null it receives the ids of the callers this sweep modified,
 *  so the driver can re-clean only those. */
bool inlineCalls(ir::Module &mod, const OptContext &ctx,
                 std::vector<vm::MethodId> *touched = nullptr);

/** Baseline factor-2 unrolling of hot innermost loops. Requires
 *  conventional (non-SSA) form. */
bool unrollLoops(ir::Function &func, const OptContext &ctx);

/** Build SSA, cycle the scalar passes (simplify/sccp/gvn/dce) until
 *  four in a row report no change or maxScalarIters x 4 have run,
 *  lower out of SSA; returns true if anything changed. Requires
 *  conventional (non-SSA) form. A pass that
 *  returns false must leave the function untouched, so four in a row
 *  is the exact fixpoint. Set AREGION_VERIFY_PASSES=1 to verify the
 *  function between every pass and check that premise (debug aid;
 *  used by the sanitizer presets). */
bool runScalarPipeline(ir::Function &func, const OptContext &ctx);

/** First half of optimizeModule: inline/devirtualize to a fixpoint,
 *  running the scalar pipeline between sweeps. After every sweep it
 *  erases each function no call reaches from main (CallStatic and
 *  Spawn targets, and every class's method in each vtable slot a
 *  CallVirtual names), so later stages see only code that can run. */
void inlineModule(ir::Module &mod, const OptContext &ctx);

/** Second half of optimizeModule: unroll, then re-clean the
 *  functions that changed. */
void unrollModule(ir::Module &mod, const OptContext &ctx);

/** Whole-module optimization: inlineModule, then unrollModule. */
void optimizeModule(ir::Module &mod, const OptContext &ctx);

} // namespace aregion::opt

#endif // AREGION_OPT_PASS_HH

/**
 * @file
 * Three-way differential execution harness.
 *
 * One program is executed by every executor in the stack — the
 * reference bytecode interpreter, the IR evaluator after every stage
 * of one core::compileProgram atomic compile (translate,
 * inline+scalar, unroll, regions, sle, region-scalar, postdom), and
 * the hardware machine simulator with the rollback oracle armed: the
 * CompilerConfig::baseline() compile, the region-scalar module with
 * and without a timing model attached, and the final module under
 * hostile geometry — and every observable is compared:
 *
 *   - printed output (including the prefix printed before a trap),
 *   - trap kind, trapping method, and bytecode pc,
 *   - a final heap digest (scoped: skipped where executors
 *     legitimately differ, see docs/FUZZING.md),
 *   - telemetry-visible abort causes (explicit abort counts per
 *     assert id must agree between the evaluator and the machine
 *     when no asynchronous abort source fired),
 *   - the rollback oracle's register/pc/heap cross-checks,
 *   - the deopt bisimulation oracle's replay equivalence: every
 *     abort is re-executed non-speculatively from its checkpoint and
 *     must reach the same observable state the hardware left behind.
 *
 * Any mismatch is returned as a DivergenceRecord naming the stage.
 */

#ifndef AREGION_TESTING_DIFF_HARNESS_HH
#define AREGION_TESTING_DIFF_HARNESS_HH

#include <string>
#include <vector>

#include "testing/random_program.hh"
#include "vm/heap.hh"
#include "vm/program.hh"

namespace aregion::testing {

struct DivergenceRecord
{
    std::string stage;      ///< executor/comparison that disagreed
    std::string detail;     ///< human-readable mismatch description
};

struct DiffReport
{
    std::vector<DivergenceRecord> divergences;

    bool skipped = false;       ///< budget exhausted; nothing compared
    std::string skipReason;

    bool trapped = false;       ///< the reference run trapped
    bool threaded = false;      ///< program spawns threads
    int executorRuns = 0;       ///< executions performed
    int prefixesRun = 0;        ///< compile stages evaluated

    bool diverged() const { return !divergences.empty(); }
    std::string summary() const;
};

/** FNV-1a digest of the mapped heap image up to the allocation
 *  watermark (plus the watermark itself). */
uint64_t heapDigest(const vm::Heap &heap);

/** Run the full differential comparison for one program.
 *  @param threaded  true if the program spawns threads (the
 *                   evaluator is skipped: it rejects Spawn). */
DiffReport runDiff(const vm::Program &prog, bool threaded);

/** Render and compare a generated program; bisimulation divergence
 *  reports carry its seed and a one-command fuzz_diff replay. */
DiffReport runDiff(const GenProgram &gp);

} // namespace aregion::testing

#endif // AREGION_TESTING_DIFF_HARNESS_HH

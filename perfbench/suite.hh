/**
 * @file
 * The benchmark's workloads as lists of cells: the programs each
 * cell runs, the reference output it must reproduce, and the request
 * census that bounds what memoizing repeated work could save.
 */

#ifndef AREGION_PERFBENCH_SUITE_HH
#define AREGION_PERFBENCH_SUITE_HH

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "runtime/jit.hh"
#include "vm/program.hh"
#include "workloads/contention/contention.hh"

namespace aregion::perfbench {

namespace ct = aregion::workloads::contention;

/** A program the cells run, with its reference output. */
struct ProgramPair
{
    std::string name;
    vm::Program measure;
    /** The profiling input, when it differs from `measure`. */
    std::optional<vm::Program> profileVariant;
    std::vector<runtime::SampleSpec> samples;

    int contexts = 0;           ///< contention: spawned worker contexts
    uint64_t refChecksum = 0;   ///< interpreter output of `measure`
    double refSeconds = 0;      ///< host time of that reference run

    const vm::Program &
    profile() const
    {
        return profileVariant ? *profileVariant : measure;
    }
};

/** One request: runtime::runExperiment on a program (paper, corpus)
 *  or contention::runContentionCell on a workload (contention). */
struct Cell
{
    std::string label;          ///< source and configuration, for replay
    size_t program = 0;         ///< index into Suite::programs
    runtime::ExperimentConfig config;
    const ct::ContentionWorkload *contention = nullptr;
};

/** One workload: its programs and one pass of its cells. */
struct Suite
{
    std::string workload;
    std::vector<ProgramPair> programs;
    std::vector<Cell> cells;

    /** Each pass reaches the workers in a seeded order (paper). */
    bool shuffle = false;
    /** The pass runs again while time remains (paper, contention);
     *  otherwise it is one pass of distinct cells (corpus). */
    bool repeats = true;
    /** Leading cells of pass 0 that the traced run measures. */
    size_t tracedCells = 0;
};

/** Distinct work in one pass of cells (the `grid.*` metrics). A
 *  functional execution is keyed without the timing model, which
 *  never feeds back into it. */
struct Census
{
    size_t cells = 0;
    size_t distinctProfiles = 0;
    size_t distinctCompiles = 0;
    size_t distinctExecs = 0;
};

/** The workload names, in BENCHMARK.json order. */
const std::vector<std::string> &workloadNames();

/**
 * Build a workload's programs, reference outputs and cells from the
 * seed; reference runs fan out over parallel::runGrid. `seconds`
 * sizes the corpus so that one run cannot exhaust it. Exits with a
 * fatal error when a reference run does not complete.
 */
Suite buildSuite(const std::string &workload, uint64_t seed,
                 double seconds);

Census census(const Suite &suite);

/** A fresh seed for stream position `index` (pass, program). */
uint64_t mixSeed(uint64_t seed, uint64_t index);

/** The order in which pass `pass` hands its cells to the workers. */
std::vector<size_t> passOrder(const Suite &suite, uint64_t seed,
                              uint64_t pass);

} // namespace aregion::perfbench

#endif // AREGION_PERFBENCH_SUITE_HH

/**
 * @file
 * Contention torture bench: abort-rate vs contention-level curves.
 *
 * Runs the three shared-heap contention workloads
 * (src/workloads/contention/) at 2–32 worker contexts with the
 * cross-context rollback oracle and the contention governor
 * attached, and reports — per (workload, contexts) cell — region
 * entries/commits, conflict aborts (the counter every single-context
 * figure leaves at zero), aborts per 1k commits, and governor
 * activity. Its JSON export of the default run is the committed
 * BENCH_contention.json (rewritten by the `bench-contention` target,
 * checked by the `bench_contention_matches_snapshot` ctest).
 *
 * Flags (beyond the shared --json):
 *   --workload <name>   run one workload instead of the suite
 *   --contexts <n>      run one contention level (2-32) instead of
 *                       the curve
 *   --seed <n>          contention governor seed (default 1)
 *
 * A bad flag or value exits 2 with a usage line before any cell runs.
 * Fault injection comes from the environment (docs/RESILIENCE.md);
 * the forced-contention sweep is
 *
 *   AREGION_FAILPOINTS='machine.conflict:p0.02,machine.commit_stall:p0.05=64'
 *   AREGION_FAILPOINT_SEED=1 bench_contention
 *
 * The oracle stamps failing cells with these flags, preceded by the
 * armed failpoint set and seed, so any reported divergence names the
 * one-line command that reruns its cell.
 */

#include <cstdio>
#include <optional>
#include <string>
#include <vector>

#include "bench_common.hh"
#include "support/table.hh"
#include "support/whole_number.hh"
#include "workloads/contention/contention.hh"

namespace {

namespace bench = aregion::bench;
namespace ct = aregion::workloads::contention;

constexpr const char *kUsage =
    "bench_contention [--workload <name>] [--contexts <2-32>] "
    "[--seed <n>] [--json <path>]";

} // namespace

int
main(int argc, char **argv)
{
    // Strip this binary's own flags; BenchReport takes --json from
    // the rest, and anything left after that is an error.
    std::string only_workload;
    int only_contexts = 0;
    uint64_t seed = 1;
    int out = 1;
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        if (arg == "--workload" && i + 1 < argc) {
            only_workload = argv[++i];
        } else if (arg == "--contexts" && i + 1 < argc) {
            const std::string value = argv[++i];
            const std::optional<uint64_t> n = aregion::wholeNumber(value);
            if (!n || *n < 2 || *n > 32)
                bench::usageError("--contexts wants a whole number from "
                                  "2 to 32, not '" + value + "'",
                                  kUsage);
            only_contexts = static_cast<int>(*n);
        } else if (arg == "--seed" && i + 1 < argc) {
            const std::string value = argv[++i];
            const std::optional<uint64_t> n = aregion::wholeNumber(value);
            if (!n)
                bench::usageError("--seed wants a whole number, not '" +
                                      value + "'",
                                  kUsage);
            seed = *n;
        } else {
            argv[out++] = argv[i];
        }
    }
    argc = out;
    bench::BenchReport report("contention", argc, argv);
    bench::rejectStrayArgs(argc, argv, kUsage);

    std::vector<int> levels{2, 4, 8, 16, 32};
    if (only_contexts > 0)
        levels = {only_contexts};
    std::vector<const ct::ContentionWorkload *> suite;
    for (const ct::ContentionWorkload &w : ct::contentionSuite()) {
        if (only_workload.empty() || w.name == only_workload)
            suite.push_back(&w);
    }
    if (suite.empty())
        bench::usageError("--workload: no workload named '" +
                              only_workload + "'",
                          kUsage);

    std::vector<ct::GridCell> cells;
    for (const int level : levels) {
        for (const ct::ContentionWorkload *w : suite) {
            ct::ContentionRunConfig cfg;
            cfg.contexts = level;
            cfg.seed = seed;
            cells.push_back({w, cfg});
        }
    }
    const std::vector<ct::CellResult> results =
        ct::runContentionGrid(cells);

    aregion::TextTable table({"workload", "contexts", "entries",
                              "commits", "aborts", "conflicts",
                              "inj.conflicts", "aborts/1k commits",
                              "backoff steps", "livelock breaks",
                              "ok"});
    int problems = 0;
    uint64_t total_conflicts = 0;
    for (const ct::CellResult &r : results) {
        const double per1k =
            r.regionCommits
                ? 1000.0 * static_cast<double>(r.totalAborts) /
                      static_cast<double>(r.regionCommits)
                : 0.0;
        const bool ok = r.completed && r.outputMatches &&
            r.problems.empty();
        table.addRow({r.workload, std::to_string(r.contexts),
                      std::to_string(r.regionEntries),
                      std::to_string(r.regionCommits),
                      std::to_string(r.totalAborts),
                      std::to_string(r.conflictAborts),
                      std::to_string(r.injectedConflicts),
                      aregion::TextTable::fmt(per1k, 2),
                      std::to_string(r.backoffSteps),
                      std::to_string(r.livelockBreaks),
                      ok ? "yes" : "NO"});
        total_conflicts += r.conflictAborts;
        if (!ok) {
            problems++;
            for (const std::string &p : r.problems)
                std::fprintf(stderr, "FAIL %s@%d: %s\n",
                             r.workload.c_str(), r.contexts,
                             p.c_str());
        }
    }
    std::printf("%s\n", table.render().c_str());

    report.addTable("contention", table);
    report.addMetric("conflict_aborts",
                     static_cast<double>(total_conflicts));
    report.addMetric("cells", static_cast<double>(results.size()));
    report.addMetric("failed_cells", problems);
    report.setContentionLevel(levels.back());

    const int json_rc = report.finish();
    return problems ? 1 : json_rc;
}

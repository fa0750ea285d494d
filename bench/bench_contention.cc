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
 * activity. `tools/perf_snapshot.sh` snapshots the JSON export to
 * BENCH_contention.json (the `bench-contention` target).
 *
 * Flags (beyond the shared --json):
 *   --workload <name>   run one workload instead of the suite
 *   --contexts <n>      run one contention level instead of the curve
 *   --seed <n>          governor/injection seed (default 1)
 *   --inject            arm machine.conflict + machine.commit_stall
 *
 * The oracle stamps failing cells with exactly these flags, so any
 * reported divergence is a one-line replay.
 */

#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "bench_common.hh"
#include "support/table.hh"
#include "workloads/contention/contention.hh"

namespace {

namespace bench = aregion::bench;
namespace ct = aregion::workloads::contention;
namespace failpoint = aregion::failpoint;

/** Forced-contention spec for --inject: rare forced conflicts at
 *  aregion_end plus held-open commits that widen the overlap
 *  windows. Probabilities are deliberately mild — injected cells
 *  must still complete. */
constexpr const char *kInjectSpec =
    "machine.conflict:p0.02,machine.commit_stall:p0.05=64";

} // namespace

int
main(int argc, char **argv)
{
    // Strip this binary's own flags; BenchReport takes --json from
    // the rest, and anything left after that is an error.
    std::string only_workload;
    int only_contexts = 0;
    uint64_t seed = 1;
    bool inject = false;
    int out = 1;
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        if (arg == "--workload" && i + 1 < argc) {
            only_workload = argv[++i];
        } else if (arg == "--contexts" && i + 1 < argc) {
            only_contexts = std::atoi(argv[++i]);
        } else if (arg == "--seed" && i + 1 < argc) {
            seed = std::strtoull(argv[++i], nullptr, 10);
        } else if (arg == "--inject") {
            inject = true;
        } else {
            argv[out++] = argv[i];
        }
    }
    argc = out;
    bench::BenchReport report("contention", argc, argv);
    bench::rejectStrayArgs(argc, argv,
                           "bench_contention [--workload <name>] "
                           "[--contexts <n>] [--seed <n>] [--inject] "
                           "[--json <path>]");

    std::vector<int> levels{2, 4, 8, 16, 32};
    if (only_contexts > 0)
        levels = {only_contexts};
    std::vector<const ct::ContentionWorkload *> suite;
    if (only_workload.empty()) {
        for (const ct::ContentionWorkload &w : ct::contentionSuite())
            suite.push_back(&w);
    } else {
        suite.push_back(&ct::contentionWorkloadByName(only_workload));
    }

    // Injection is grid-scoped: the registry is process-global, so
    // arming must finish before any machine starts evaluating.
    if (inject) {
        auto &fps = failpoint::Registry::global();
        fps.setSeed(seed);
        std::string err;
        if (fps.configure(kInjectSpec, &err) < 0) {
            std::fprintf(stderr, "inject spec: %s\n", err.c_str());
            return 2;
        }
    }

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
    if (inject)
        failpoint::Registry::global().disarmAll();

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

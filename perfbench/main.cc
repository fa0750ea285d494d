/**
 * @file
 * The repository benchmark (README.md). One invocation runs one
 * workload from a single process and prints, as its last stdout line,
 * one JSON object: whether every output was correct, the cells
 * attempted and failed, and every metric by name with its unit.
 *
 *   perfbench --workload <paper|corpus|contention> --seed <n>
 *             --seconds <s> --trace <0|1>
 *             [--workers <n>] [--spans <dir>] [--source <digest>]
 *   perfbench --selftest [--workers <n>]
 *
 * --trace 0 is the timed run: W workers in a closed loop take the
 * next cell when their last one finishes and send it through the
 * repo's public entry point, until the time is up; it reports the
 * end-to-end metrics. --trace 1 is the traced run: the same cells,
 * each once through the entry point and once stage by stage with a
 * span around every layer call; it reports the per-layer metrics and
 * checks that both paths agree exactly. --selftest checks that every
 * exact count repeats across two runs and between 1 and W workers,
 * on a small slice of each workload.
 */

#include <malloc.h>
#include <sched.h>
#include <sys/resource.h>

#include <algorithm>
#include <cerrno>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <mutex>
#include <optional>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "execute.hh"
#include "suite.hh"
#include "support/parallel.hh"
#include "support/telemetry.hh"
#include "support/telemetry_keys.hh"

namespace aregion::perfbench {

namespace {

/** Set-up runs at least kSetupMinRepeats times, and again while the
 *  set-ups so far took under kSetupBudgetS, up to kSetupMaxRepeats;
 *  setup_s is the median. Short set-ups need many samples for a
 *  steady median; long ones (the corpus) get the minimum. */
constexpr int kSetupMinRepeats = 5;
constexpr int kSetupMaxRepeats = 25;
constexpr double kSetupBudgetS = 1.0;

/** W defaults to the available CPUs, at most this many. */
constexpr size_t kDefaultMaxWorkers = 4;

struct Options
{
    std::string workload;
    uint64_t seed = 0;
    double seconds = 0;
    int trace = -1;
    size_t workers = 0;
    std::string spansDir;
    std::string source = "unknown";
    bool selftest = false;
};

[[noreturn]] void
usage(const std::string &why)
{
    std::fprintf(stderr,
                 "perfbench: %s\n"
                 "usage: perfbench --workload <paper|corpus|contention> "
                 "--seed <n> --seconds <s> --trace <0|1> [--workers <n>] "
                 "[--spans <dir>] [--source <digest>]\n"
                 "       perfbench --selftest [--workers <n>]\n",
                 why.c_str());
    std::exit(2);
}

uint64_t
parseUnsigned(const std::string &flag, const std::string &text)
{
    if (text.empty() || text.find_first_not_of("0123456789") !=
                            std::string::npos)
        usage(flag + ": not a whole number: " + text);
    errno = 0;
    const unsigned long long v = std::strtoull(text.c_str(), nullptr, 10);
    if (errno == ERANGE)
        usage(flag + ": out of range: " + text);
    return v;
}

Options
parseOptions(int argc, char **argv)
{
    Options o;
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        if (arg == "--selftest") {
            o.selftest = true;
            continue;
        }
        if (i + 1 >= argc)
            usage("missing value after " + arg);
        const std::string value = argv[++i];
        if (arg == "--workload") {
            o.workload = value;
        } else if (arg == "--seed") {
            o.seed = parseUnsigned(arg, value);
        } else if (arg == "--seconds") {
            o.seconds = static_cast<double>(parseUnsigned(arg, value));
        } else if (arg == "--trace") {
            o.trace = parseUnsigned(arg, value) == 1 ? 1
                      : value == "0"                 ? 0
                                                     : -1;
        } else if (arg == "--workers") {
            o.workers = parseUnsigned(arg, value);
        } else if (arg == "--spans") {
            o.spansDir = value;
        } else if (arg == "--source") {
            o.source = value;
        } else {
            usage("unknown argument " + arg);
        }
    }
    if (o.workers > 256)
        usage("--workers: at most 256");
    if (o.selftest)
        return o;
    const auto &names = workloadNames();
    if (std::find(names.begin(), names.end(), o.workload) == names.end())
        usage("--workload: expected paper, corpus or contention");
    if (o.seconds < 1 || o.seconds > 600)
        usage("--seconds: expected 1 to 600");
    if (o.trace != 0 && o.trace != 1)
        usage("--trace: expected 0 or 1");
    return o;
}

size_t
availableCpus()
{
    cpu_set_t set;
    if (sched_getaffinity(0, sizeof(set), &set) == 0)
        return std::max(1, CPU_COUNT(&set));
    return std::max(1u, std::thread::hardware_concurrency());
}

/** W for every parallel::runGrid call that follows. */
void
setWorkers(size_t workers)
{
    setenv("AREGION_JOBS", std::to_string(workers).c_str(), 1);
}

double
secondsSince(Clock::time_point start)
{
    return std::chrono::duration<double>(Clock::now() - start).count();
}

/** Linear interpolation between closest ranks (numpy's default). */
double
percentile(std::vector<double> values, double q)
{
    if (values.empty())
        return 0;
    std::sort(values.begin(), values.end());
    const double pos = q * static_cast<double>(values.size() - 1);
    const size_t lo = static_cast<size_t>(pos);
    const size_t hi = std::min(lo + 1, values.size() - 1);
    return values[lo] + (values[hi] - values[lo]) * (pos - static_cast<double>(lo));
}

double
peakRssMb()
{
    rusage usage_now{};
    getrusage(RUSAGE_SELF, &usage_now);
    return static_cast<double>(usage_now.ru_maxrss) / 1024.0;  // KiB
}

/** Counts failed cells and keeps the first one's replay coordinates. */
class Failures
{
  public:
    void
    note(const std::string &where, const std::string &problem)
    {
        std::lock_guard<std::mutex> lock(mu);
        if (count++ == 0)
            first = where + ": " + problem;
    }

    uint64_t
    total() const
    {
        std::lock_guard<std::mutex> lock(mu);
        return count;
    }

    std::string
    firstFailure() const
    {
        std::lock_guard<std::mutex> lock(mu);
        return first;
    }

  private:
    mutable std::mutex mu;      // guards the two fields below
    uint64_t count = 0;
    std::string first;
};

std::string
where(const Suite &suite, const Cell &cell, uint64_t seed, uint64_t pass,
      uint64_t governor_seed)
{
    std::string s = "workload=" + suite.workload +
                    " seed=" + std::to_string(seed) +
                    " pass=" + std::to_string(pass);
    if (cell.contention)
        s += " governor_seed=" + std::to_string(governor_seed);
    return s + " cell=\"" + cell.label + "\"";
}

struct Draw
{
    size_t cell;
    uint64_t pass;
    uint64_t index;             ///< position in the run's cell stream
};

/**
 * Hands cells to the workers in stream order: pass after pass of the
 * suite, each in its seeded order, or a single pass of distinct cells
 * (corpus). Once the time is up it stops at the next stop point -- a
 * pass boundary, or any corpus cell -- so every pass a run measures is
 * whole and each run measures the same mix of cells.
 */
class Dispatcher
{
  public:
    Dispatcher(const Suite &suite, uint64_t seed,
               Clock::time_point deadline)
        : suite(suite), seed(seed), deadline(deadline)
    {
    }

    std::optional<Draw>
    next()
    {
        std::lock_guard<std::mutex> lock(mu);
        const size_t n = suite.cells.size();
        const uint64_t pass = issued / n;
        const size_t pos = issued % n;
        if (stopped)
            return std::nullopt;
        if (!suite.repeats && pass > 0) {
            exhausted = stopped = true;
            return std::nullopt;
        }
        if ((pos == 0 || !suite.repeats) && Clock::now() >= deadline) {
            stopped = true;
            return std::nullopt;
        }
        if (pos == 0)
            order = passOrder(suite, seed, pass);
        return Draw{order[pos], pass, issued++};
    }

    /** The corpus ran out before the time did. */
    bool
    ranOut() const
    {
        std::lock_guard<std::mutex> lock(mu);
        return exhausted;
    }

  private:
    const Suite &suite;
    const uint64_t seed;
    const Clock::time_point deadline;
    mutable std::mutex mu;      // guards the fields below
    uint64_t issued = 0;
    std::vector<size_t> order;
    bool stopped = false;
    bool exhausted = false;
};

struct Metric
{
    std::string name;
    double value;
    std::string unit;
    bool integral = false;
};

std::string
formatNumber(double v, bool integral)
{
    if (!std::isfinite(v))
        v = 0;
    char buf[64];
    if (integral)
        std::snprintf(buf, sizeof(buf), "%.0f", v);
    else
        std::snprintf(buf, sizeof(buf), "%.17g", v);
    return buf;
}

/** The result line: the last line of stdout. */
void
printResult(bool correct, uint64_t attempted, uint64_t failed,
            const std::vector<Metric> &metrics)
{
    std::string line = std::string("{\"correct\": ") +
                       (correct ? "true" : "false") +
                       ", \"attempted\": " + std::to_string(attempted) +
                       ", \"failed\": " + std::to_string(failed) +
                       ", \"metrics\": {";
    for (size_t i = 0; i < metrics.size(); ++i) {
        const Metric &m = metrics[i];
        line += (i ? ", " : "") + telemetry::jsonQuote(m.name) +
                ": {\"value\": " + formatNumber(m.value, m.integral) +
                ", \"unit\": " + telemetry::jsonQuote(m.unit) + "}";
    }
    line += "}}";
    std::printf("%s\n", line.c_str());
    std::fflush(stdout);
}

/** The run record: two records are comparable only when they match on
 *  everything but the seed. */
void
printRecord(const Options &o, size_t cpus)
{
    std::printf(
        "{\"record\": {\"workload\": %s, \"mode\": \"%s\", \"seed\": %llu, "
        "\"seconds\": %g, \"workers\": %zu, \"nproc\": %zu, "
        "\"hardware_concurrency\": %u, \"build_type\": %s, "
        "\"cxx_flags\": %s, \"compiler\": %s, \"source\": %s}}\n",
        telemetry::jsonQuote(o.workload).c_str(),
        o.trace ? "traced" : "timed",
        static_cast<unsigned long long>(o.seed), o.seconds, o.workers, cpus,
        std::thread::hardware_concurrency(),
        telemetry::jsonQuote(PERFBENCH_BUILD_TYPE).c_str(),
        telemetry::jsonQuote(PERFBENCH_CXX_FLAGS).c_str(),
        telemetry::jsonQuote(PERFBENCH_COMPILER).c_str(),
        telemetry::jsonQuote(o.source).c_str());
}

// --- Timed run ---------------------------------------------------------

/** Fewest cells in a window, so that each window's p95 has ten
 *  samples beyond it. */
constexpr size_t kMinWindowCells = 200;

/** Cells per window: whole passes where the suite repeats, so every
 *  window measures the same mix. */
size_t
windowCells(const Suite &suite)
{
    if (!suite.repeats)
        return kMinWindowCells;
    const size_t pass = suite.cells.size();
    return pass * ((kMinWindowCells + pass - 1) / pass);
}

struct Completion
{
    uint64_t index;             ///< position in the cell stream
    double endS;                ///< since the timed phase started
    double ms;                  ///< the cell's latency
};

/** Throughput and latency of one window of completions. */
struct Window
{
    double cellsPerS;
    double p50Ms;
    double p95Ms;
};

struct TimedResult
{
    uint64_t cells = 0;
    double wallS = 0;
    size_t windowCells = 0;
    std::vector<Window> windows;
    bool ranOut = false;
};

/**
 * The closed loop: W workers each take the next cell when their last
 * one finishes, until the time is up. The cell stream is cut into
 * windows of windowCells() consecutive cells, so each window holds
 * whole passes; a window lasts from the previous window's last
 * completion to its own. Each metric is the median over complete
 * windows, so a burst of host noise shorter than half the run moves
 * it little.
 */
TimedResult
timedRun(const Suite &suite, const Options &o, Failures &failures)
{
    std::vector<std::vector<Completion>> per_worker(o.workers);
    const Clock::time_point start = Clock::now();
    Dispatcher dispatcher(
        suite, o.seed,
        start + std::chrono::duration_cast<Clock::duration>(
                    std::chrono::duration<double>(o.seconds)));
    parallel::runGrid(o.workers, [&](size_t w) {
        while (const std::optional<Draw> draw = dispatcher.next()) {
            const Cell &cell = suite.cells[draw->cell];
            const uint64_t governor_seed = mixSeed(o.seed, draw->pass);
            const Clock::time_point t0 = Clock::now();
            const CellOutcome out = runCell(suite, cell, governor_seed);
            const Clock::time_point t1 = Clock::now();
            per_worker[w].push_back(
                {draw->index,
                 std::chrono::duration<double>(t1 - start).count(),
                 std::chrono::duration<double, std::milli>(t1 - t0).count()});
            if (!out.problem.empty()) {
                failures.note(where(suite, cell, o.seed, draw->pass,
                                    governor_seed),
                              out.problem);
            }
        }
    });
    TimedResult r;
    r.wallS = secondsSince(start);
    r.ranOut = dispatcher.ranOut();
    std::vector<Completion> all;
    for (const std::vector<Completion> &v : per_worker)
        all.insert(all.end(), v.begin(), v.end());
    std::sort(all.begin(), all.end(),
              [](const Completion &a, const Completion &b) {
                  return a.index < b.index;
              });
    r.cells = all.size();
    // A run too short for one window is measured as one window.
    r.windowCells = std::min(windowCells(suite), all.size());
    double previous_end = 0;
    for (size_t lo = 0; r.windowCells > 0 && lo + r.windowCells <= all.size();
         lo += r.windowCells) {
        std::vector<double> ms;
        double end = previous_end;
        for (size_t i = lo; i < lo + r.windowCells; ++i) {
            ms.push_back(all[i].ms);
            end = std::max(end, all[i].endS);
        }
        r.windows.push_back(
            {static_cast<double>(r.windowCells) / (end - previous_end),
             percentile(ms, 0.50), percentile(ms, 0.95)});
        previous_end = end;
    }
    return r;
}

double
medianOver(const std::vector<Window> &windows, double Window::*field)
{
    std::vector<double> v;
    for (const Window &w : windows)
        v.push_back(w.*field);
    return percentile(v, 0.5);
}

// --- Traced run --------------------------------------------------------

/** The per-pass timers compileProgram already keeps, by metric name. */
const std::vector<std::pair<const char *, const char *>> &
passTimers()
{
    namespace keys = telemetry::keys;
    static const std::vector<std::pair<const char *, const char *>> timers{
        {keys::kJitPassGvnUs, "opt.gvn_s"},
        {keys::kJitPassSccpUs, "opt.sccp_s"},
        {keys::kJitPassSsaUs, "opt.ssa_s"},
        {keys::kJitPassDceUs, "opt.dce_s"},
        {keys::kJitPassSimplifyCfgUs, "opt.simplify_cfg_s"},
        {keys::kJitPassInlineUs, "opt.inline_s"},
        {keys::kJitPassUnrollUs, "opt.unroll_s"},
    };
    return timers;
}

struct SliceResult
{
    LayerTotals totals;
    double untracedCellS = 0;       ///< the untraced twins, summed
    std::vector<double> passS;      ///< passTimers() order
    std::vector<Span> spans;
};

/**
 * One traced repetition of a slice of cells: every cell through its
 * public entry point, and every cell stage by stage, as two phases
 * fanned out over the workers (`traced_first` picks the order, so
 * alternating repetitions cancel host drift out of the overhead), and
 * each traced cell checked against its untraced twin. The pass timers
 * are read around the traced phase only.
 */
SliceResult
tracedSlice(const Suite &suite, const std::vector<size_t> &slice,
            uint64_t seed, uint64_t governor_seed, Clock::time_point epoch,
            bool traced_first, Failures &failures)
{
    const size_t n = slice.size();
    std::vector<CellOutcome> untraced(n);
    std::vector<double> untraced_s(n);
    auto untraced_phase = [&] {
        parallel::runGrid(n, [&](size_t k) {
            const Clock::time_point t0 = Clock::now();
            untraced[k] =
                runCell(suite, suite.cells[slice[k]], governor_seed);
            untraced_s[k] = secondsSince(t0);
        });
    };

    SliceResult r;
    std::vector<CellOutcome> traced(n);
    std::vector<LayerTotals> totals(n);
    std::vector<std::vector<Span>> spans(n);
    auto traced_phase = [&] {
        auto &reg = telemetry::Registry::global();
        std::vector<uint64_t> before;
        for (const auto &[key, metric] : passTimers())
            before.push_back(reg.counterValue(key));
        parallel::runGrid(n, [&](size_t k) {
            traced[k] = runCellTraced(suite, suite.cells[slice[k]],
                                      governor_seed, epoch,
                                      static_cast<uint32_t>(k), spans[k],
                                      totals[k]);
        });
        for (size_t j = 0; j < passTimers().size(); ++j) {
            r.passS.push_back(
                static_cast<double>(
                    reg.counterValue(passTimers()[j].first) - before[j]) *
                1e-6);
        }
    };
    if (traced_first) {
        traced_phase();
        untraced_phase();
    } else {
        untraced_phase();
        traced_phase();
    }

    for (size_t k = 0; k < n; ++k) {
        r.totals.add(totals[k]);
        r.untracedCellS += untraced_s[k];
        r.spans.insert(r.spans.end(), spans[k].begin(), spans[k].end());
        std::string problem = traced[k].problem;
        if (problem.empty())
            problem = untraced[k].problem;
        if (problem.empty() && !(traced[k].counts == untraced[k].counts))
            problem = "traced cell's counts differ from its untraced twin";
        if (!problem.empty()) {
            failures.note(where(suite, suite.cells[slice[k]], seed, 0,
                                governor_seed),
                          problem);
        }
    }
    return r;
}

/** The leading `tracedCells` of pass 0, in pass 0's order. */
std::vector<size_t>
tracedSliceOf(const Suite &suite, uint64_t seed)
{
    std::vector<size_t> order = passOrder(suite, seed, 0);
    order.resize(suite.tracedCells);
    return order;
}

void
writeSpans(const Options &o, const Suite &suite,
           const std::vector<size_t> &slice, const std::vector<Span> &spans)
{
    namespace fs = std::filesystem;
    std::error_code ec;
    fs::create_directories(o.spansDir, ec);
    const fs::path path = fs::path(o.spansDir) /
                          (o.workload + "-seed" + std::to_string(o.seed) +
                           ".json");
    std::ofstream out(path);
    out << "{\"workload\": " << telemetry::jsonQuote(o.workload)
        << ", \"seed\": " << o.seed << ", \"workers\": " << o.workers
        << ",\n \"cells\": [";
    for (size_t k = 0; k < slice.size(); ++k) {
        out << (k ? ",\n  " : "\n  ")
            << telemetry::jsonQuote(suite.cells[slice[k]].label);
    }
    out << "],\n \"spans\": [";
    for (size_t i = 0; i < spans.size(); ++i) {
        const Span &s = spans[i];
        out << (i ? ",\n  " : "\n  ") << "{\"name\": \"" << s.name
            << "\", \"cell\": " << s.cell << ", \"parent\": " << s.parent
            << ", \"start_ns\": " << s.startNs << ", \"end_ns\": " << s.endNs
            << "}";
    }
    out << "]}\n";
    if (!out)
        std::fprintf(stderr, "perfbench: cannot write %s\n", path.c_str());
    else
        std::printf("spans: %s\n", path.c_str());
}

/** Seconds the setup's reference runs spent on the slice's programs. */
double
referenceSeconds(const Suite &suite, const std::vector<size_t> &slice)
{
    std::set<size_t> programs;
    for (const size_t c : slice)
        programs.insert(suite.cells[c].program);
    double total = 0;
    for (const size_t p : programs)
        total += suite.programs[p].refSeconds;
    return total;
}

std::vector<Metric>
layerMetrics(const Suite &suite, const std::vector<size_t> &slice,
             const LayerTotals &first, const LayerTotals &sum,
             const std::vector<double> &pass_s, double untraced_s,
             uint64_t reps)
{
    const double r = static_cast<double>(reps);
    const double exec_s = sum.machineS - sum.timingS;
    const double ref_s = suite.workload == "contention"
                             ? sum.refS / r
                             : referenceSeconds(suite, slice);
    const double attributed = sum.buildS + sum.profileS + sum.refS +
                              sum.compileS + sum.lowerS + sum.machineS;
    std::vector<Metric> m{
        {"trace.cell_s", sum.cellS / r, "s"},
        {"trace.unattributed_s", (sum.cellS - attributed) / r, "s"},
        {"trace.overhead_frac",
         untraced_s > 0 ? sum.cellS / untraced_s - 1 : 0, "ratio"},
        {"trace.reps", r, "count", true},
        {"workloads.build_s", sum.buildS / r, "s"},
        {"vm.profile_s", sum.profileS / r, "s"},
        {"vm.ref_s", ref_s, "s"},
        {"core.compile_s", sum.compileS / r, "s"},
        {"hw.lower_s", sum.lowerS / r, "s"},
        {"hw.exec_s", exec_s / r, "s"},
        {"hw.exec_muops_per_s",
         exec_s > 0 ? static_cast<double>(sum.uops) / exec_s * 1e-6 : 0,
         "Muop/s"},
        {"hw.timing_s", sum.timingS / r, "s"},
        {"hw.timing_muops_per_s",
         sum.timingS > 0
             ? static_cast<double>(sum.timedUops) / sum.timingS * 1e-6
             : 0,
         "Muop/s"},
        {"hw.commit_ratio",
         first.regionEntries
             ? static_cast<double>(first.regionCommits) /
                   static_cast<double>(first.regionEntries)
             : 0,
         "ratio"},
    };
    for (size_t j = 0; j < passTimers().size(); ++j)
        m.push_back({passTimers()[j].second, pass_s[j] / r, "s"});
    for (const auto &[name, value] : first.exactCounts())
        m.push_back({name, static_cast<double>(value), "count", true});
    const Census grid = census(suite);
    m.push_back({"grid.cells", static_cast<double>(grid.cells), "count", true});
    m.push_back({"grid.distinct_profiles",
                 static_cast<double>(grid.distinctProfiles), "count", true});
    m.push_back({"grid.distinct_compiles",
                 static_cast<double>(grid.distinctCompiles), "count", true});
    m.push_back({"grid.distinct_execs",
                 static_cast<double>(grid.distinctExecs), "count", true});
    return m;
}

/** Each layer's share of traced cell time, for the human reader. */
void
printShares(const LayerTotals &sum)
{
    const double cell = sum.cellS > 0 ? sum.cellS : 1;
    const double attributed = sum.buildS + sum.profileS + sum.refS +
                              sum.compileS + sum.lowerS + sum.machineS;
    const std::pair<const char *, double> layers[] = {
        {"workloads.build", sum.buildS},
        {"vm.profile", sum.profileS},
        {"vm.ref", sum.refS},
        {"core.compile", sum.compileS},
        {"hw.lower", sum.lowerS},
        {"hw.exec", sum.machineS - sum.timingS},
        {"hw.timing", sum.timingS},
        {"unattributed", sum.cellS - attributed},
    };
    std::printf("layer shares of traced cell time (%.3f s):\n", sum.cellS);
    for (const auto &[name, s] : layers)
        std::printf("  %-16s %9.3f s  %5.1f%%\n", name, s, 100 * s / cell);
}

/** Repeats the traced slice while another repetition, as long as the
 *  last one, still fits in the time (always at least once). */
int
tracedMain(const Options &o, const Suite &suite, Failures &failures)
{
    const std::vector<size_t> slice = tracedSliceOf(suite, o.seed);
    const uint64_t governor_seed = mixSeed(o.seed, 0);
    const Clock::time_point epoch = Clock::now();

    LayerTotals first, sum;
    std::vector<double> pass_s(passTimers().size(), 0.0);
    std::vector<Span> spans;
    double untraced_s = 0;
    uint64_t reps = 0;
    double rep_s = 0;
    do {
        const Clock::time_point rep_start = Clock::now();
        SliceResult rep = tracedSlice(suite, slice, o.seed, governor_seed,
                                      epoch, reps % 2 == 1, failures);
        if (reps == 0) {
            first = rep.totals;
            spans = std::move(rep.spans);
        } else if (rep.totals.exactCounts() != first.exactCounts()) {
            failures.note("workload=" + suite.workload + " seed=" +
                              std::to_string(o.seed) + " repetition=" +
                              std::to_string(reps),
                          "exact counts differ from the first repetition");
        }
        sum.add(rep.totals);
        for (size_t j = 0; j < pass_s.size(); ++j)
            pass_s[j] += rep.passS[j];
        untraced_s += rep.untracedCellS;
        ++reps;
        rep_s = secondsSince(rep_start);
    } while (secondsSince(epoch) + rep_s <= o.seconds);

    std::printf("traced %zu cells x %llu repetitions\n", slice.size(),
                static_cast<unsigned long long>(reps));
    printShares(sum);
    if (!o.spansDir.empty())
        writeSpans(o, suite, slice, spans);
    const uint64_t failed = failures.total();
    if (failed)
        std::printf("first failure: %s\n", failures.firstFailure().c_str());
    printResult(failed == 0, slice.size() * reps, failed,
                layerMetrics(suite, slice, first, sum, pass_s, untraced_s,
                             reps));
    return 0;
}

int
timedMain(const Options &o, const Suite &suite, double setup_s,
          Failures &failures)
{
    const TimedResult r = timedRun(suite, o, failures);
    std::printf("timed %llu cells in %.3f s on %zu workers: %zu windows of "
                "%zu cells; metrics are window medians\n",
                static_cast<unsigned long long>(r.cells), r.wallS, o.workers,
                r.windows.size(), r.windowCells);
    // The tail is printed, not bounded: on a shared host it swings with
    // the neighbours' load far more than the median (README.md).
    std::printf("cell_ms_p95 %.3f ms (window median; %zu samples beyond it "
                "per window)\n",
                medianOver(r.windows, &Window::p95Ms),
                r.windowCells - static_cast<size_t>(std::ceil(
                                    0.95 * static_cast<double>(r.windowCells))));
    if (r.ranOut)
        std::printf("warning: the corpus ran out before the time did\n");
    const uint64_t failed = failures.total();
    if (failed)
        std::printf("first failure: %s\n", failures.firstFailure().c_str());
    printResult(failed == 0 && !r.windows.empty(),
                std::max<uint64_t>(r.cells, 1), failed,
                {
                    {"cells_per_s", medianOver(r.windows, &Window::cellsPerS),
                     "1/s"},
                    {"cell_ms_p50", medianOver(r.windows, &Window::p50Ms), "ms"},
                    {"setup_s", setup_s, "s"},
                    {"peak_rss_mb", peakRssMb(), "MB"},
                });
    return 0;
}

// --- Self-test ---------------------------------------------------------

/** A few cells of each workload, adaptive recompiles included. */
std::vector<size_t>
selftestSlice(const Suite &suite)
{
    std::vector<size_t> slice;
    for (size_t i = 0; i < suite.cells.size(); ++i) {
        const Cell &c = suite.cells[i];
        const int contexts = suite.programs[c.program].contexts;
        bool pick = false;
        if (suite.workload == "paper")
            pick = i % 16 == 0 || c.config.adaptiveRecompile;
        else if (suite.workload == "corpus")
            pick = i < 32;
        else
            pick = contexts == 2 || contexts == 8;
        if (pick)
            slice.push_back(i);
    }
    return slice;
}

int
selftest(size_t workers)
{
    constexpr uint64_t kSeed = 1;
    bool ok = true;
    for (const std::string &name : workloadNames()) {
        const Suite suite = buildSuite(name, kSeed, 0);
        const std::vector<size_t> slice = selftestSlice(suite);
        const uint64_t governor_seed = mixSeed(kSeed, 0);
        Failures failures;
        auto counts = [&](size_t w) {
            setWorkers(w);
            return tracedSlice(suite, slice, kSeed, governor_seed,
                               Clock::now(), false, failures)
                .totals.exactCounts();
        };
        const auto a = counts(workers);
        const auto b = counts(workers);
        const auto c = counts(1);
        setWorkers(workers);
        std::printf("%s: %zu cells\n", name.c_str(), slice.size());
        for (size_t i = 0; i < a.size(); ++i) {
            const bool same =
                a[i].second == b[i].second && a[i].second == c[i].second;
            ok = ok && same;
            std::printf("  %-22s %14llu %s\n", a[i].first,
                        static_cast<unsigned long long>(a[i].second),
                        same ? "repeats" : "DIFFERS across runs or workers");
        }
        if (failures.total()) {
            ok = false;
            std::printf("  %llu failed cells; first: %s\n",
                        static_cast<unsigned long long>(failures.total()),
                        failures.firstFailure().c_str());
        }
    }
    std::printf("selftest %s: two runs at %zu workers and one at 1 worker\n",
                ok ? "passed" : "FAILED", workers);
    return ok ? 0 : 1;
}

} // namespace

int
run(int argc, char **argv)
{
    Options o = parseOptions(argc, argv);
    const size_t cpus = availableCpus();
    if (o.workers == 0)
        o.workers = std::min(kDefaultMaxWorkers, cpus);
    setWorkers(o.workers);
    if (o.selftest)
        return selftest(o.workers);

    printRecord(o, cpus);
    Suite suite;
    std::vector<double> setup_runs;
    double setup_total = 0;
    while (setup_runs.size() < kSetupMinRepeats ||
           (setup_total < kSetupBudgetS &&
            setup_runs.size() < kSetupMaxRepeats)) {
        // Hand the previous set-up's pages back, so peak memory counts
        // one suite and not how the allocator kept the last one.
        suite = Suite{};
        malloc_trim(0);
        const Clock::time_point start = Clock::now();
        suite = buildSuite(o.workload, o.seed, o.seconds);
        setup_runs.push_back(secondsSince(start));
        setup_total += setup_runs.back();
    }
    const double setup_s = percentile(setup_runs, 0.5);
    std::printf("setup: %zu programs, %zu cells per pass; set-up times",
                suite.programs.size(), suite.cells.size());
    for (const double s : setup_runs)
        std::printf(" %.4f", s);
    std::printf(" s, median %.4f s\n", setup_s);

    Failures failures;
    return o.trace ? tracedMain(o, suite, failures)
                   : timedMain(o, suite, setup_s, failures);
}

} // namespace aregion::perfbench

int
main(int argc, char **argv)
{
    return aregion::perfbench::run(argc, argv);
}

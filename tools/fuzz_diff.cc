/**
 * @file
 * Differential fuzzing driver (docs/FUZZING.md).
 *
 * Sweeps seeds across feature masks, runs every generated program
 * through the three-way differential harness (interpreter vs IR
 * evaluator at every pass-pipeline prefix vs machine simulator with
 * and without timing, rollback oracle armed), minimizes any
 * diverging seed, and writes the minimized reproducer to a corpus
 * directory. Also replays existing corpus entries.
 *
 * Exit status: 0 = no divergence, 1 = divergence found (or a corpus
 * entry failed to replay cleanly), 2 = usage error.
 */

#include <cstdio>
#include <cstring>
#include <filesystem>
#include <mutex>
#include <optional>
#include <string>
#include <vector>

#include "support/parallel.hh"
#include "support/telemetry.hh"
#include "support/telemetry_keys.hh"
#include "support/whole_number.hh"
#include "testing/corpus.hh"
#include "testing/diff_harness.hh"
#include "testing/minimizer.hh"
#include "testing/random_program.hh"

using namespace aregion;
using namespace aregion::testing;
namespace keys = aregion::telemetry::keys;

namespace {

struct Args
{
    uint64_t seeds = 2000;
    uint64_t start = 1;
    std::vector<uint32_t> masks;
    std::string corpusDir;
    std::string replayPath;
    bool json = false;
    bool quiet = false;
};

void
usage()
{
    std::fprintf(stderr,
                 "usage: fuzz_diff [options]\n"
                 "  --seeds N        seeds per feature mask "
                 "(default 2000)\n"
                 "  --start S        first seed (default 1)\n"
                 "  --masks SPEC     comma list of masks: canonical, "
                 "all, legacy,\n"
                 "                   name+name (e.g. traps+arrays), "
                 "or a number\n"
                 "  --corpus-dir D   minimize divergences and write "
                 "*.case files to D\n"
                 "  --replay PATH    replay a corpus .case file or "
                 "directory, then exit\n"
                 "  --json           dump the telemetry registry as "
                 "JSON on exit\n"
                 "  --quiet          suppress per-divergence detail\n");
}

bool
parseArgs(int argc, char **argv, Args &args)
{
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        auto need = [&](const char *what) -> const char * {
            if (i + 1 >= argc) {
                std::fprintf(stderr, "fuzz_diff: %s needs a value\n",
                             what);
                return nullptr;
            }
            return argv[++i];
        };
        // A whole number for `flag`; `positive` also rejects 0.
        auto number = [&](const char *flag, bool positive,
                          uint64_t &out) {
            const char *v = need(flag);
            if (!v)
                return false;
            const std::optional<uint64_t> n = wholeNumber(v);
            if (!n || (positive && *n == 0)) {
                std::fprintf(stderr,
                             "fuzz_diff: %s wants a %s number, not '%s'\n",
                             flag, positive ? "positive whole" : "whole",
                             v);
                usage();
                return false;
            }
            out = *n;
            return true;
        };
        if (arg == "--seeds") {
            if (!number("--seeds", true, args.seeds))
                return false;
        } else if (arg == "--start") {
            if (!number("--start", false, args.start))
                return false;
        } else if (arg == "--masks") {
            const char *v = need("--masks");
            if (!v)
                return false;
            std::string spec = v;
            size_t pos = 0;
            while (pos <= spec.size()) {
                size_t next = spec.find(',', pos);
                if (next == std::string::npos)
                    next = spec.size();
                const std::string word = spec.substr(pos, next - pos);
                if (word == "canonical") {
                    for (uint32_t m : canonicalMasks())
                        args.masks.push_back(m);
                } else {
                    uint32_t mask = 0;
                    if (!parseMask(word, mask)) {
                        std::fprintf(stderr,
                                     "fuzz_diff: bad mask '%s'\n",
                                     word.c_str());
                        return false;
                    }
                    args.masks.push_back(mask);
                }
                pos = next + 1;
            }
        } else if (arg == "--corpus-dir") {
            const char *v = need("--corpus-dir");
            if (!v)
                return false;
            args.corpusDir = v;
        } else if (arg == "--replay") {
            const char *v = need("--replay");
            if (!v)
                return false;
            args.replayPath = v;
        } else if (arg == "--json") {
            args.json = true;
        } else if (arg == "--quiet") {
            args.quiet = true;
        } else {
            std::fprintf(stderr, "fuzz_diff: unknown option '%s'\n",
                         arg.c_str());
            usage();
            return false;
        }
    }
    if (args.masks.empty())
        args.masks = canonicalMasks();
    return true;
}

void
recordReport(telemetry::Registry &reg, const DiffReport &report)
{
    reg.add(keys::kFuzzSeeds);
    if (report.skipped)
        reg.add(keys::kFuzzSkipped);
    if (report.trapped)
        reg.add(keys::kFuzzTrapped);
    if (report.threaded)
        reg.add(keys::kFuzzThreaded);
    reg.add(keys::kFuzzExecutorRuns,
            static_cast<uint64_t>(report.executorRuns));
    reg.add(keys::kFuzzPrefixes,
            static_cast<uint64_t>(report.prefixesRun));
    reg.add(keys::kFuzzDivergences, report.divergences.size());
}

int
replay(const Args &args)
{
    namespace fs = std::filesystem;
    std::vector<std::string> files;
    if (fs::is_directory(args.replayPath)) {
        files = listCorpusFiles(args.replayPath);
    } else {
        files.push_back(args.replayPath);
    }
    if (files.empty()) {
        std::fprintf(stderr, "fuzz_diff: no .case files in %s\n",
                     args.replayPath.c_str());
        return 2;
    }
    telemetry::Registry &reg = telemetry::Registry::global();
    int bad = 0;
    for (const std::string &path : files) {
        GenProgram gp;
        std::string err;
        if (!readCorpusFile(path, gp, &err)) {
            std::fprintf(stderr, "fuzz_diff: %s: %s\n", path.c_str(),
                         err.c_str());
            ++bad;
            continue;
        }
        const DiffReport report = runDiff(gp);
        recordReport(reg, report);
        if (report.diverged()) {
            ++bad;
            std::printf("DIVERGED %s\n%s\n", path.c_str(),
                        report.summary().c_str());
        } else if (!args.quiet) {
            std::printf("ok %s (%s)\n", path.c_str(),
                        report.summary().c_str());
        }
    }
    if (args.json)
        std::printf("%s\n", reg.toJson().c_str());
    std::printf("replayed %zu corpus entries, %d diverging\n",
                files.size(), bad);
    return bad ? 1 : 0;
}

struct Divergence
{
    uint32_t mask;
    uint64_t seed;
    DiffReport report;
};

} // namespace

int
main(int argc, char **argv)
{
    Args args;
    if (!parseArgs(argc, argv, args)) {
        return 2;
    }
    if (!args.replayPath.empty())
        return replay(args);

    telemetry::Registry &reg = telemetry::Registry::global();
    const size_t total =
        args.masks.size() * static_cast<size_t>(args.seeds);

    std::mutex mu;
    std::vector<Divergence> diverging;
    Histogram mainSizes;

    parallel::runGrid(total, [&](size_t cell) {
        const uint32_t mask =
            args.masks[cell / static_cast<size_t>(args.seeds)];
        const uint64_t seed =
            args.start + cell % static_cast<size_t>(args.seeds);
        RandomProgramGen gen(seed, mask);
        const GenProgram gp = gen.generate();
        const DiffReport report = runDiff(gp);
        recordReport(reg, report);
        if (report.diverged()) {
            std::lock_guard<std::mutex> lock(mu);
            diverging.push_back({mask, seed, report});
        }
        {
            std::lock_guard<std::mutex> lock(mu);
            mainSizes.add(
                static_cast<double>(renderedMainSize(gp)));
        }
    });
    reg.merge(keys::kFuzzMainBytecodes, mainSizes);

    for (const Divergence &d : diverging) {
        std::printf("DIVERGED mask=%s seed=%llu\n%s\n",
                    maskName(d.mask).c_str(),
                    static_cast<unsigned long long>(d.seed),
                    d.report.summary().c_str());
        if (args.corpusDir.empty())
            continue;
        RandomProgramGen gen(d.seed, d.mask);
        const GenProgram gp = gen.generate();
        MinimizeStats stats;
        const GenProgram minimal = minimizeProgram(
            gp,
            [](const GenProgram &candidate) {
                return runDiff(candidate).diverged();
            },
            &stats);
        reg.add(keys::kFuzzMinimized);
        reg.add(keys::kFuzzMinimizerCalls, stats.predicateCalls);
        std::filesystem::create_directories(args.corpusDir);
        const std::string path = args.corpusDir + "/mask" +
            std::to_string(d.mask) + "_seed" +
            std::to_string(d.seed) + ".case";
        const std::string comment =
            "fuzz_diff divergence, mask=" + maskName(d.mask) +
            " seed=" + std::to_string(d.seed) + "\n" +
            "minimized " + std::to_string(stats.stmtsBefore) +
            " -> " + std::to_string(stats.stmtsAfter) +
            " statements (" + std::to_string(renderedMainSize(minimal)) +
            " main bytecodes)\n" + runDiff(minimal).summary();
        writeCorpusFile(path, minimal, comment);
        std::printf("  minimized reproducer: %s\n", path.c_str());
    }

    if (args.json)
        std::printf("%s\n", reg.toJson().c_str());

    std::printf(
        "fuzz_diff: %zu seeds (%zu masks x %llu), %llu skipped, "
        "%llu trapped, %zu diverging\n",
        total, args.masks.size(),
        static_cast<unsigned long long>(args.seeds),
        static_cast<unsigned long long>(
            reg.counterValue(keys::kFuzzSkipped)),
        static_cast<unsigned long long>(
            reg.counterValue(keys::kFuzzTrapped)),
        diverging.size());
    return diverging.empty() ? 0 : 1;
}

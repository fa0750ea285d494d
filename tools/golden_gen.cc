/**
 * @file
 * Regenerates the golden table embedded in
 * tests/hw_machine_golden_test.cc.
 *
 * Usage: golden_gen
 *
 * Runs all seven workloads through the golden pipeline
 * (tests/golden_harness.hh) and prints the rows as a C++ initializer
 * list. Paste the output into the test after an *intentional*
 * architectural-behaviour change; for pure performance refactors the
 * existing goldens must reproduce bit-identically.
 */

#include <cstdio>

#include "golden_harness.hh"

int
main()
{
    using namespace aregion;
    std::printf("// Generated by tools/golden_gen — workload, "
                "machine checksum, interp checksum,\n"
                "// retired uops, region entries/commits/aborts, "
                "per-region fingerprint,\n"
                "// trace digest, timing-model cycles.\n");
    for (const auto &w : workloads::dacapoSuite()) {
        const test::GoldenRow row = test::runGoldenPipeline(w);
        std::printf("    {\"%s\", 0x%016llxull, 0x%016llxull,\n"
                    "     %lluull, %lluull, %lluull, %lluull, "
                    "0x%016llxull,\n"
                    "     0x%016llxull, %lluull},\n",
                    row.workload.c_str(),
                    static_cast<unsigned long long>(
                        row.outputChecksum),
                    static_cast<unsigned long long>(
                        row.interpChecksum),
                    static_cast<unsigned long long>(row.retiredUops),
                    static_cast<unsigned long long>(
                        row.regionEntries),
                    static_cast<unsigned long long>(
                        row.regionCommits),
                    static_cast<unsigned long long>(
                        row.regionAborts),
                    static_cast<unsigned long long>(
                        row.regionFingerprint),
                    static_cast<unsigned long long>(row.traceDigest),
                    static_cast<unsigned long long>(row.cycles));
    }
    return 0;
}

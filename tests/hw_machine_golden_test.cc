/**
 * @file
 * Golden-value safety net for functional-simulator refactors: every
 * workload's architectural results — output checksum, retired uops,
 * region entry/commit/abort tallies, and a fingerprint over the
 * per-static-region statistics — must reproduce the values recorded
 * from the seed simulator bit-for-bit, and so must a digest of the
 * traced uop stream the timing model receives and that model's cycle
 * count. The interpreter runs the same input as an independent
 * cross-check of the output stream.
 *
 * Performance work on the machine hot loop (flat speculative state,
 * frame pooling, trace batching) must never move these numbers; an
 * intentional architectural change regenerates the table with
 * tools/golden_gen.
 */

#include <ostream>

#include <gtest/gtest.h>

#include "golden_harness.hh"

namespace {

using aregion::test::GoldenRow;

struct GoldenEntry
{
    const char *workload;
    uint64_t outputChecksum;
    uint64_t interpChecksum;
    uint64_t retiredUops;
    uint64_t regionEntries;
    uint64_t regionCommits;
    uint64_t regionAborts;
    uint64_t regionFingerprint;
    uint64_t traceDigest;
    uint64_t cycles;
};

/**
 * Print a row by its workload name. gtest's default printer dumps
 * the raw object bytes, which include the address of the name string;
 * under ASLR that address changes on every run, and so would the test
 * names that CTest records from the listing.
 */
void
PrintTo(const GoldenEntry &entry, std::ostream *os)
{
    *os << entry.workload;
}

/**
 * Recorded by tools/golden_gen. Regenerated when the optimizer moved
 * to SSA form (sparse SCCP/GVN/DCE): checksums, region tallies and
 * fingerprints were byte-identical to the seed; only retired-uop
 * counts shifted (antlr +2.7% .. jython -1.3%) because phi-web
 * coalescing in out-of-SSA lowering emits different copy sequences
 * than the old copy-propagation pass. See docs/PERFORMANCE.md.
 * The last two columns (the traced run's digest and cycle count)
 * were added later, recorded from the per-uop step/execute machine
 * before the quantum loop replaced it. bloat's and pmd's cycles were
 * re-recorded when the timing model began ageing producers by the
 * consumer's own sequence number, which skips at every abort.
 */
constexpr GoldenEntry kGolden[] = {
    {"antlr", 0xe537396aa2456226ull, 0xe537396aa2456226ull,
     2286668ull, 4616ull, 4614ull, 2ull, 0xc4b45b6b1fb0d136ull,
     0xfea2849991911268ull, 1874372ull},
    {"bloat", 0x347910dea1e75a8dull, 0x347910dea1e75a8dull,
     878513ull, 15325ull, 14649ull, 676ull, 0x52fab2877415cde6ull,
     0x24a11487f281e0c7ull, 351937ull},
    {"fop", 0xd583eb162fb52291ull, 0xd583eb162fb52291ull,
     787945ull, 26169ull, 26169ull, 0ull, 0x5dda5709f0bdec87ull,
     0xbbd827a50cbe95c0ull, 1114195ull},
    {"hsqldb", 0x938a803d9de71a01ull, 0x938a803d9de71a01ull,
     522897ull, 9001ull, 8930ull, 71ull, 0x5e030149a6dc4db6ull,
     0x7216ac644c9c4115ull, 388369ull},
    {"jython", 0xcccadb78262fa42cull, 0xcccadb78262fa42cull,
     3117428ull, 17377ull, 17241ull, 136ull, 0x7f1a3f03ada0166dull,
     0x25c7d7f5737761f3ull, 953642ull},
    {"pmd", 0x3ffad97f43b44b1dull, 0x3ffad97f43b44b1dull,
     352818ull, 1863ull, 1713ull, 150ull, 0xe503c0f0986aa508ull,
     0x2be7bbe3e8e8bf34ull, 209868ull},
    {"xalan", 0x171515e7d6be1452ull, 0x171515e7d6be1452ull,
     2163574ull, 12034ull, 11957ull, 77ull, 0x8db6627425f58b8eull,
     0xfdc0357b2b935f94ull, 759983ull},
};

class GoldenWorkload : public ::testing::TestWithParam<GoldenEntry>
{
};

TEST_P(GoldenWorkload, ArchitecturalResultsMatchSeed)
{
    const GoldenEntry &expect = GetParam();
    const GoldenRow row = aregion::test::runGoldenPipeline(
        aregion::workloads::workloadByName(expect.workload));

    // The machine's observable output must match the interpreter's
    // for the same input (independent of the recorded goldens).
    EXPECT_EQ(row.outputChecksum, row.interpChecksum)
        << "machine output diverged from the interpreter";

    EXPECT_EQ(row.outputChecksum, expect.outputChecksum);
    EXPECT_EQ(row.interpChecksum, expect.interpChecksum);
    EXPECT_EQ(row.retiredUops, expect.retiredUops);
    EXPECT_EQ(row.regionEntries, expect.regionEntries);
    EXPECT_EQ(row.regionCommits, expect.regionCommits);
    EXPECT_EQ(row.regionAborts, expect.regionAborts);
    EXPECT_EQ(row.regionFingerprint, expect.regionFingerprint)
        << "per-region commit/abort tallies moved; regenerate with "
           "tools/golden_gen only for intentional changes";
    EXPECT_EQ(row.traceDigest, expect.traceDigest)
        << "the traced uop stream moved (seqs, producers, pcs, flags, "
           "region events, or batch/abort/marker order)";
    EXPECT_EQ(row.cycles, expect.cycles);
}

INSTANTIATE_TEST_SUITE_P(
    Workloads, GoldenWorkload, ::testing::ValuesIn(kGolden),
    [](const ::testing::TestParamInfo<GoldenEntry> &info) {
        return std::string(info.param.workload);
    });

} // namespace

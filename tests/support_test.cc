/**
 * @file
 * Unit tests for the support library: RNG determinism, statistics
 * containers, table rendering, and whole-number parsing.
 */

#include <gtest/gtest.h>

#include "support/logging.hh"
#include "support/random.hh"
#include "support/statistics.hh"
#include "support/table.hh"
#include "support/whole_number.hh"

namespace {

using namespace aregion;

TEST(Rng, DeterministicForSameSeed)
{
    Rng a(42), b(42);
    for (int i = 0; i < 1000; ++i)
        EXPECT_EQ(a.next(), b.next());
}

TEST(Rng, DifferentSeedsDiverge)
{
    Rng a(1), b(2);
    int same = 0;
    for (int i = 0; i < 100; ++i)
        same += a.next() == b.next();
    EXPECT_LT(same, 5);
}

TEST(Rng, BelowStaysInRange)
{
    Rng rng(7);
    for (int i = 0; i < 10000; ++i)
        EXPECT_LT(rng.below(17), 17u);
}

TEST(Rng, RangeInclusive)
{
    Rng rng(9);
    bool saw_lo = false, saw_hi = false;
    for (int i = 0; i < 10000; ++i) {
        const int64_t v = rng.range(-3, 3);
        EXPECT_GE(v, -3);
        EXPECT_LE(v, 3);
        saw_lo |= v == -3;
        saw_hi |= v == 3;
    }
    EXPECT_TRUE(saw_lo);
    EXPECT_TRUE(saw_hi);
}

TEST(Rng, ChanceExtremes)
{
    Rng rng(3);
    for (int i = 0; i < 100; ++i) {
        EXPECT_FALSE(rng.chance(0.0));
        EXPECT_TRUE(rng.chance(1.0));
    }
}

TEST(Rng, ChanceIsCalibrated)
{
    Rng rng(11);
    int hits = 0;
    for (int i = 0; i < 100000; ++i)
        hits += rng.chance(0.25);
    EXPECT_NEAR(hits / 100000.0, 0.25, 0.01);
}

TEST(Rng, PickWeightedRespectsWeights)
{
    Rng rng(13);
    std::vector<double> weights{1.0, 0.0, 3.0};
    int counts[3] = {0, 0, 0};
    for (int i = 0; i < 40000; ++i)
        counts[rng.pickWeighted(weights)]++;
    EXPECT_EQ(counts[1], 0);
    EXPECT_NEAR(counts[2] / static_cast<double>(counts[0]), 3.0, 0.2);
}

TEST(RunningStat, Basics)
{
    RunningStat s;
    EXPECT_EQ(s.count(), 0u);
    s.add(2.0);
    s.add(4.0);
    s.add(9.0);
    EXPECT_EQ(s.count(), 3u);
    EXPECT_DOUBLE_EQ(s.mean(), 5.0);
    EXPECT_DOUBLE_EQ(s.min(), 2.0);
    EXPECT_DOUBLE_EQ(s.max(), 9.0);
}

TEST(RunningStat, Merge)
{
    RunningStat a, b;
    a.add(1.0);
    b.add(3.0);
    b.add(5.0);
    a.merge(b);
    EXPECT_EQ(a.count(), 3u);
    EXPECT_DOUBLE_EQ(a.mean(), 3.0);
    EXPECT_DOUBLE_EQ(a.max(), 5.0);
}

TEST(Histogram, PercentilesAndFractions)
{
    Histogram h;
    for (int i = 1; i <= 100; ++i)
        h.add(i);
    EXPECT_EQ(h.count(), 100u);
    EXPECT_EQ(h.percentile(0.50), 50);
    EXPECT_EQ(h.percentile(0.99), 99);
    EXPECT_EQ(h.percentile(1.00), 100);
    EXPECT_DOUBLE_EQ(h.fractionAtOrBelow(10), 0.10);
    EXPECT_EQ(h.countAbove(90), 10u);
    EXPECT_DOUBLE_EQ(h.mean(), 50.5);
    EXPECT_EQ(h.min(), 1);
    EXPECT_EQ(h.max(), 100);
}

TEST(Histogram, WeightedAdds)
{
    Histogram h;
    h.add(5, 10);
    h.add(50, 90);
    EXPECT_EQ(h.percentile(0.05), 5);
    EXPECT_EQ(h.percentile(0.5), 50);
}

TEST(Statistics, Geomean)
{
    EXPECT_DOUBLE_EQ(geomean({4.0, 9.0}), 6.0);
    EXPECT_DOUBLE_EQ(geomean({}), 0.0);
}

TEST(Statistics, Mean)
{
    EXPECT_DOUBLE_EQ(mean({1.0, 2.0, 3.0}), 2.0);
    EXPECT_DOUBLE_EQ(mean({}), 0.0);
}

TEST(TextTable, RendersAlignedColumns)
{
    TextTable t({"bench", "speedup"});
    t.addRow({"antlr", "17.0%"});
    t.addRow({"hsqldb", "56.0%"});
    const std::string out = t.render();
    EXPECT_NE(out.find("bench"), std::string::npos);
    EXPECT_NE(out.find("56.0%"), std::string::npos);
    // Numeric cells right-align: both % cells end at the same column.
    const auto line1 = out.find("antlr");
    const auto line2 = out.find("hsqldb");
    EXPECT_NE(line1, std::string::npos);
    EXPECT_NE(line2, std::string::npos);
}

TEST(TextTable, FormatHelpers)
{
    EXPECT_EQ(TextTable::fmt(3.14159, 2), "3.14");
    EXPECT_EQ(TextTable::pct(0.125, 1), "12.5%");
}

TEST(TextTable, RowArityMismatchPanics)
{
    TextTable t({"a", "b"});
    EXPECT_THROW(t.addRow({"only-one"}), std::logic_error);
}

TEST(Logging, PanicThrowsLogicError)
{
    EXPECT_THROW(AREGION_PANIC("boom ", 42), std::logic_error);
}

TEST(Logging, AssertPassesAndFails)
{
    EXPECT_NO_THROW(AREGION_ASSERT(1 + 1 == 2, "fine"));
    EXPECT_THROW(AREGION_ASSERT(false, "nope"), std::logic_error);
}

TEST(WholeNumber, AcceptsDecimalDigitsOnly)
{
    EXPECT_EQ(wholeNumber("0"), 0u);
    EXPECT_EQ(wholeNumber("010"), 10u);
    EXPECT_EQ(wholeNumber("18446744073709551615"), UINT64_MAX);
    for (const char *bad : {"", "-5", "+5", " 5", "5 ", "0x10", "1e3",
                            "abc", "18446744073709551616"})
        EXPECT_EQ(wholeNumber(bad), std::nullopt) << "'" << bad << "'";
}

} // namespace

#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "support/failpoint.hh"

namespace fp = aregion::failpoint;

namespace {

// Tests share the global registry; keep each one hermetic.
class FailpointTest : public ::testing::Test
{
  protected:
    void SetUp() override { fp::Registry::global().disarmAll(); }
    void TearDown() override { fp::Registry::global().disarmAll(); }
};

TEST_F(FailpointTest, ParseProbability)
{
    fp::Spec spec;
    std::string err;
    ASSERT_TRUE(fp::parseSpec("p0.25", &spec, &err)) << err;
    EXPECT_EQ(spec.trigger, fp::Trigger::Probability);
    EXPECT_DOUBLE_EQ(spec.probability, 0.25);
    EXPECT_EQ(spec.value, 0);
}

TEST_F(FailpointTest, ParseEveryNth)
{
    fp::Spec spec;
    std::string err;
    ASSERT_TRUE(fp::parseSpec("n100", &spec, &err)) << err;
    EXPECT_EQ(spec.trigger, fp::Trigger::EveryNth);
    EXPECT_EQ(spec.n, 100u);
}

TEST_F(FailpointTest, ParseOneShotWithPayload)
{
    fp::Spec spec;
    std::string err;
    ASSERT_TRUE(fp::parseSpec("once5=-24", &spec, &err)) << err;
    EXPECT_EQ(spec.trigger, fp::Trigger::OneShot);
    EXPECT_EQ(spec.n, 5u);
    EXPECT_EQ(spec.value, -24);

    ASSERT_TRUE(fp::parseSpec("once", &spec, &err)) << err;
    EXPECT_EQ(spec.n, 1u);
}

TEST_F(FailpointTest, ParseRejectsMalformed)
{
    fp::Spec spec;
    std::string err;
    EXPECT_FALSE(fp::parseSpec("", &spec, &err));
    EXPECT_FALSE(fp::parseSpec("x3", &spec, &err));
    EXPECT_FALSE(fp::parseSpec("p1.5", &spec, &err));
    EXPECT_FALSE(fp::parseSpec("p-0.1", &spec, &err));
    EXPECT_FALSE(fp::parseSpec("pnan", &spec, &err));
    EXPECT_FALSE(fp::parseSpec("p+0.5", &spec, &err));
    EXPECT_FALSE(fp::parseSpec("p 0.5", &spec, &err));
    EXPECT_FALSE(fp::parseSpec("n0", &spec, &err));
    EXPECT_FALSE(fp::parseSpec("nabc", &spec, &err));
    // A sign is not a whole number: "-5" must not wrap to a hit index
    // no run reaches.
    EXPECT_FALSE(fp::parseSpec("n-5", &spec, &err));
    EXPECT_FALSE(fp::parseSpec("once0", &spec, &err));
    EXPECT_FALSE(fp::parseSpec("once-1", &spec, &err));
    EXPECT_FALSE(fp::parseSpec("n3=", &spec, &err));
    EXPECT_FALSE(fp::parseSpec("n3=xyz", &spec, &err));
    EXPECT_FALSE(fp::parseSpec("n3= 4", &spec, &err));
    EXPECT_FALSE(err.empty());
}

TEST_F(FailpointTest, UnarmedFindReturnsNull)
{
    auto &reg = fp::Registry::global();
    EXPECT_EQ(reg.find("no.such.point"), nullptr);
    EXPECT_FALSE(reg.anyArmed());
}

TEST_F(FailpointTest, EveryNthFiresOnSchedule)
{
    auto &reg = fp::Registry::global();
    fp::Spec spec;
    std::string err;
    ASSERT_TRUE(fp::parseSpec("n3", &spec, &err)) << err;
    reg.arm("test.point", spec);
    EXPECT_TRUE(reg.anyArmed());

    fp::Failpoint *point = reg.find("test.point");
    ASSERT_NE(point, nullptr);
    std::vector<bool> fired;
    for (uint64_t hit = 1; hit <= 9; ++hit)
        fired.push_back(point->firesAt(hit));
    const std::vector<bool> want = {false, false, true,  false, false,
                                    true,  false, false, true};
    EXPECT_EQ(fired, want);
}

TEST_F(FailpointTest, OneShotFiresExactlyOnce)
{
    auto &reg = fp::Registry::global();
    fp::Spec spec;
    std::string err;
    ASSERT_TRUE(fp::parseSpec("once4", &spec, &err)) << err;
    reg.arm("test.point", spec);
    fp::Failpoint *point = reg.find("test.point");
    ASSERT_NE(point, nullptr);
    int fires = 0;
    for (uint64_t hit = 1; hit <= 100; ++hit)
        fires += point->firesAt(hit) ? 1 : 0;
    EXPECT_EQ(fires, 1);
    EXPECT_TRUE(point->firesAt(4));
}

TEST_F(FailpointTest, ProbabilityIsDeterministicInSeed)
{
    auto &reg = fp::Registry::global();
    fp::Spec spec;
    std::string err;
    ASSERT_TRUE(fp::parseSpec("p0.3", &spec, &err)) << err;

    auto stream = [&](uint64_t seed) {
        reg.setSeed(seed);
        reg.arm("test.point", spec);
        fp::Failpoint *point = reg.find("test.point");
        std::vector<bool> fired;
        for (uint64_t hit = 1; hit <= 200; ++hit)
            fired.push_back(point->firesAt(hit));
        return fired;
    };

    const auto a = stream(42);
    const auto b = stream(42);
    const auto c = stream(43);
    EXPECT_EQ(a, b);
    EXPECT_NE(a, c);

    // Sanity: the rate is in the right ballpark for p=0.3, n=200.
    const long fires = std::count(a.begin(), a.end(), true);
    EXPECT_GT(fires, 30);
    EXPECT_LT(fires, 90);
}

TEST_F(FailpointTest, DistinctNamesGetDistinctStreams)
{
    auto &reg = fp::Registry::global();
    reg.setSeed(7);
    fp::Spec spec;
    std::string err;
    ASSERT_TRUE(fp::parseSpec("p0.5", &spec, &err)) << err;
    reg.arm("point.a", spec);
    reg.arm("point.b", spec);
    fp::Failpoint *a = reg.find("point.a");
    fp::Failpoint *b = reg.find("point.b");
    std::vector<bool> sa, sb;
    for (uint64_t hit = 1; hit <= 64; ++hit) {
        sa.push_back(a->firesAt(hit));
        sb.push_back(b->firesAt(hit));
    }
    EXPECT_NE(sa, sb);
}

TEST_F(FailpointTest, SeedOrderDoesNotMatter)
{
    auto &reg = fp::Registry::global();
    fp::Spec spec;
    std::string err;
    ASSERT_TRUE(fp::parseSpec("p0.5", &spec, &err)) << err;

    reg.setSeed(99);
    reg.arm("test.point", spec);
    std::vector<bool> seed_first;
    for (uint64_t hit = 1; hit <= 50; ++hit)
        seed_first.push_back(reg.find("test.point")->firesAt(hit));

    reg.disarmAll();
    reg.setSeed(0);
    reg.arm("test.point", spec);
    reg.setSeed(99);   // re-derives the point's seed
    std::vector<bool> seed_last;
    for (uint64_t hit = 1; hit <= 50; ++hit)
        seed_last.push_back(reg.find("test.point")->firesAt(hit));

    EXPECT_EQ(seed_first, seed_last);
}

TEST_F(FailpointTest, ConfigureParsesCsv)
{
    auto &reg = fp::Registry::global();
    std::string err;
    EXPECT_EQ(reg.configure("machine.assert:n2,machine.capacity:p0.5=7,"
                            "machine.commit_stall:once3",
                            &err),
              3)
        << err;
    const auto names = reg.armedNames();
    ASSERT_EQ(names.size(), 3u);
    EXPECT_EQ(names[0], "machine.assert");
    EXPECT_EQ(names[1], "machine.capacity");
    EXPECT_EQ(names[2], "machine.commit_stall");
    fp::Failpoint *b = reg.find("machine.capacity");
    ASSERT_NE(b, nullptr);
    EXPECT_EQ(b->value(), 7);

    EXPECT_EQ(reg.configure("bad-entry-no-colon", &err), -1);
    EXPECT_FALSE(err.empty());
    EXPECT_EQ(reg.configure("", &err), 0);
}

TEST_F(FailpointTest, MalformedEntriesDoNotDropValidOnes)
{
    // A bad entry in AREGION_FAILPOINTS must not silently disable
    // the rest of the spec: every well-formed entry is armed, the
    // return value still signals the error, and *err names every
    // bad entry (';'-joined) so the warning is actionable.
    auto &reg = fp::Registry::global();
    std::string err;
    EXPECT_EQ(reg.configure(
                  "machine.assert:n2,garbage,machine.capacity:p0.5", &err),
              -1);
    EXPECT_NE(err.find("garbage"), std::string::npos) << err;
    const auto names = reg.armedNames();
    ASSERT_EQ(names.size(), 2u);
    EXPECT_EQ(names[0], "machine.assert");
    EXPECT_EQ(names[1], "machine.capacity");
    EXPECT_NE(reg.find("machine.assert"), nullptr);
    EXPECT_NE(reg.find("machine.capacity"), nullptr);
}

TEST_F(FailpointTest, EveryMalformedEntryIsReported)
{
    auto &reg = fp::Registry::global();
    std::string err;
    // Three distinct failure shapes: no colon, empty name, bad
    // trigger. All three must appear in the joined error message.
    EXPECT_EQ(reg.configure("no-colon,:p0.5,machine.commit_stall:zap7,"
                            "machine.conflict:once2",
                            &err),
              -1);
    EXPECT_NE(err.find("no-colon"), std::string::npos) << err;
    EXPECT_NE(err.find("zap7"), std::string::npos) << err;
    EXPECT_GE(std::count(err.begin(), err.end(), ';'), 2) << err;
    // The one valid entry still armed.
    const auto names = reg.armedNames();
    ASSERT_EQ(names.size(), 1u);
    EXPECT_EQ(names[0], "machine.conflict");
}

TEST_F(FailpointTest, UnknownNamesAreReportedNotArmed)
{
    // A misspelt name arms a point no hook consults: the run would
    // inject nothing while its export still recorded the injection.
    // It is reported like a malformed entry and the rest still arm.
    auto &reg = fp::Registry::global();
    std::string err;
    EXPECT_EQ(reg.configure("machine.conflit:p0.9,machine.conflict:n2,"
                            "timing.mispredict:once",
                            &err),
              -1);
    EXPECT_NE(err.find("machine.conflit"), std::string::npos) << err;
    EXPECT_NE(err.find("timing.mispredict"), std::string::npos) << err;
    EXPECT_EQ(reg.find("machine.conflit"), nullptr);
    EXPECT_EQ(reg.describe(), "machine.conflict:n2");

    for (const char *name : fp::kNames) {
        reg.disarmAll();
        EXPECT_EQ(reg.configure(std::string(name) + ":n1", &err), 1)
            << name;
    }
}

TEST_F(FailpointTest, DescribeRoundTrips)
{
    auto &reg = fp::Registry::global();
    std::string err;
    const std::string spec = "machine.assert:n2,machine.capacity:once3=9,"
                             "machine.interrupt:p0.123456789";
    ASSERT_EQ(reg.configure(spec, &err), 3) << err;
    const std::string desc = reg.describe();
    EXPECT_EQ(desc, spec);

    // Re-arming from the description arms the same probability.
    reg.disarmAll();
    ASSERT_EQ(reg.configure(desc, &err), 3) << err;
    EXPECT_EQ(reg.describe(), desc);
    EXPECT_EQ(reg.find("machine.interrupt")->spec().probability,
              0.123456789);
}

TEST_F(FailpointTest, DisarmRemovesPoint)
{
    auto &reg = fp::Registry::global();
    std::string err;
    ASSERT_EQ(reg.configure("machine.assert:n2,machine.capacity:n3", &err),
              2)
        << err;
    reg.disarm("machine.assert");
    EXPECT_EQ(reg.find("machine.assert"), nullptr);
    EXPECT_NE(reg.find("machine.capacity"), nullptr);
    EXPECT_TRUE(reg.anyArmed());
    reg.disarmAll();
    EXPECT_FALSE(reg.anyArmed());
}

} // namespace

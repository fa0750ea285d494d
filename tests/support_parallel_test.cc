#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <stdexcept>
#include <string>
#include <vector>

#include "support/logging.hh"
#include "support/parallel.hh"

namespace parallel = aregion::parallel;

namespace {

// plannedThreads/runGrid read AREGION_JOBS per call, so tests can
// steer the single-thread vs pooled path through the environment.
class ScopedJobs
{
  public:
    explicit ScopedJobs(const char *value)
    {
        if (const char *old = std::getenv("AREGION_JOBS")) {
            hadOld = true;
            oldValue = old;
        }
        setenv("AREGION_JOBS", value, 1);
    }
    ~ScopedJobs()
    {
        if (hadOld)
            setenv("AREGION_JOBS", oldValue.c_str(), 1);
        else
            unsetenv("AREGION_JOBS");
    }

  private:
    bool hadOld = false;
    std::string oldValue;
};

class ParallelTest : public ::testing::Test
{
  protected:
    void SetUp() override { aregion::setLogQuiet(true); }
    void TearDown() override { aregion::setLogQuiet(false); }
};

TEST_F(ParallelTest, PlannedThreadsClampsToTasks)
{
    ScopedJobs jobs("8");
    EXPECT_EQ(parallel::plannedThreads(0), 1u);
    EXPECT_EQ(parallel::plannedThreads(3), 3u);
    EXPECT_EQ(parallel::plannedThreads(100), 8u);
}

TEST_F(ParallelTest, JobsEnvNonNumericFallsBack)
{
    const size_t hw = [] {
        ScopedJobs unset("");
        unsetenv("AREGION_JOBS");
        return parallel::plannedThreads(100000);
    }();
    ScopedJobs jobs("banana");
    EXPECT_EQ(parallel::plannedThreads(100000), hw);
}

TEST_F(ParallelTest, JobsEnvTrailingGarbageFallsBack)
{
    const size_t hw = [] {
        ScopedJobs unset("");
        unsetenv("AREGION_JOBS");
        return parallel::plannedThreads(100000);
    }();
    for (const char *value : {"4x", " +2"}) {
        ScopedJobs jobs(value);
        EXPECT_EQ(parallel::plannedThreads(100000), hw) << value;
    }
}

TEST_F(ParallelTest, JobsEnvAbsurdValueClamps)
{
    ScopedJobs jobs("99999999");
    EXPECT_EQ(parallel::plannedThreads(100000), 256u);
}

TEST_F(ParallelTest, JobsEnvOverflowClamps)
{
    ScopedJobs jobs("99999999999999999999999999");
    EXPECT_EQ(parallel::plannedThreads(100000), 256u);
}

TEST_F(ParallelTest, JobsEnvNonPositiveFallsBack)
{
    const size_t hw = [] {
        ScopedJobs unset("");
        unsetenv("AREGION_JOBS");
        return parallel::plannedThreads(100000);
    }();
    {
        ScopedJobs jobs("0");
        EXPECT_EQ(parallel::plannedThreads(100000), hw);
    }
    {
        ScopedJobs jobs("-4");
        EXPECT_EQ(parallel::plannedThreads(100000), hw);
    }
}

TEST_F(ParallelTest, RunGridRunsEveryCellSingleThread)
{
    ScopedJobs jobs("1");
    std::vector<int> hit(16, 0);
    parallel::runGrid(hit.size(),
                      [&](size_t i) { hit[i] = static_cast<int>(i) + 1; });
    for (size_t i = 0; i < hit.size(); ++i)
        EXPECT_EQ(hit[i], static_cast<int>(i) + 1);
}

TEST_F(ParallelTest, RunGridRunsEveryCellPooled)
{
    ScopedJobs jobs("4");
    std::vector<std::atomic<int>> hit(64);
    parallel::runGrid(hit.size(), [&](size_t i) {
        hit[i].fetch_add(1, std::memory_order_relaxed);
    });
    for (const auto &h : hit)
        EXPECT_EQ(h.load(), 1);
}

TEST_F(ParallelTest, RunGridZeroTasksIsNoop)
{
    ScopedJobs jobs("4");
    parallel::runGrid(0, [](size_t) { FAIL() << "cell ran"; });
}

// Drain-then-rethrow, single-thread path: the first error wins and
// every later cell still runs before the rethrow.
TEST_F(ParallelTest, SingleThreadDrainsThenRethrowsFirstError)
{
    ScopedJobs jobs("1");
    std::vector<int> hit(8, 0);
    try {
        parallel::runGrid(hit.size(), [&](size_t i) {
            hit[i] = 1;
            if (i == 2)
                throw std::runtime_error("cell 2");
            if (i == 5)
                throw std::runtime_error("cell 5");
        });
        FAIL() << "expected rethrow";
    } catch (const std::runtime_error &e) {
        EXPECT_STREQ(e.what(), "cell 2");
    }
    for (const int h : hit)
        EXPECT_EQ(h, 1);
}

// Pooled path: cells queued after the failing one still run, and
// exactly one of the thrown errors (whichever was recorded first)
// reaches the caller.
TEST_F(ParallelTest, PooledDrainsThenRethrows)
{
    ScopedJobs jobs("4");
    std::vector<std::atomic<int>> hit(64);
    bool caught = false;
    try {
        parallel::runGrid(hit.size(), [&](size_t i) {
            hit[i].fetch_add(1, std::memory_order_relaxed);
            if (i % 16 == 3)
                throw std::runtime_error("cell " + std::to_string(i));
        });
    } catch (const std::runtime_error &e) {
        caught = true;
        EXPECT_EQ(std::string(e.what()).rfind("cell ", 0), 0u);
    }
    EXPECT_TRUE(caught);
    for (const auto &h : hit)
        EXPECT_EQ(h.load(), 1);
}

TEST_F(ParallelTest, NonStdExceptionPropagates)
{
    ScopedJobs jobs("2");
    std::atomic<int> ran{0};
    bool caught = false;
    try {
        parallel::runGrid(8, [&](size_t i) {
            ran.fetch_add(1, std::memory_order_relaxed);
            if (i == 0)
                throw 42;
        });
    } catch (int v) {
        caught = true;
        EXPECT_EQ(v, 42);
    }
    EXPECT_TRUE(caught);
    EXPECT_EQ(ran.load(), 8);
}

} // namespace

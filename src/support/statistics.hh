/**
 * @file
 * Lightweight statistics containers used by the simulators and the
 * benchmark harnesses: sparse histograms with percentile queries and
 * the arithmetic mean.
 */

#ifndef AREGION_SUPPORT_STATISTICS_HH
#define AREGION_SUPPORT_STATISTICS_HH

#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace aregion {

/**
 * Sparse histogram over integer sample values.
 *
 * Used for region-size and cache-footprint distributions (Section 6.2
 * of the paper), where exact small counts matter and the domain is
 * unbounded.
 */
class Histogram
{
  public:
    void add(int64_t value, uint64_t weight = 1);

    /** Accumulate every bucket of `other` (order-independent, so
     *  per-thread histograms can be merged into a shared one). */
    void merge(const Histogram &other);

    uint64_t count() const { return n; }
    double mean() const;
    /** Only meaningful when count() > 0 (0 is a sentinel for empty;
     *  exporters emit null instead — see Registry::toJson). */
    int64_t min() const;
    int64_t max() const;

    /** Smallest value v such that at least frac of samples are <= v. */
    int64_t percentile(double frac) const;

    /** Number of samples strictly above value. */
    uint64_t countAbove(int64_t value) const;

    const std::map<int64_t, uint64_t> &buckets() const { return data; }

  private:
    std::map<int64_t, uint64_t> data;
    uint64_t n = 0;
};

/** Arithmetic mean; 0 for empty input. */
double mean(const std::vector<double> &values);

} // namespace aregion

#endif // AREGION_SUPPORT_STATISTICS_HH

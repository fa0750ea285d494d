#include "support/statistics.hh"

#include <cmath>

#include "support/logging.hh"

namespace aregion {

void
Histogram::add(int64_t value, uint64_t weight)
{
    if (weight == 0)
        return;
    data[value] += weight;
    n += weight;
}

void
Histogram::merge(const Histogram &other)
{
    for (const auto &[value, weight] : other.data) {
        data[value] += weight;
        n += weight;
    }
}

double
Histogram::mean() const
{
    if (n == 0)
        return 0.0;
    double acc = 0.0;
    for (const auto &[value, weight] : data)
        acc += static_cast<double>(value) * static_cast<double>(weight);
    return acc / static_cast<double>(n);
}

int64_t
Histogram::min() const
{
    return data.empty() ? 0 : data.begin()->first;
}

int64_t
Histogram::max() const
{
    return data.empty() ? 0 : data.rbegin()->first;
}

int64_t
Histogram::percentile(double frac) const
{
    AREGION_ASSERT(frac >= 0.0 && frac <= 1.0, "percentile out of range");
    if (n == 0)
        return 0;
    const auto needed = static_cast<uint64_t>(
        std::ceil(frac * static_cast<double>(n)));
    uint64_t seen = 0;
    for (const auto &[value, weight] : data) {
        seen += weight;
        if (seen >= needed)
            return value;
    }
    return data.rbegin()->first;
}

uint64_t
Histogram::countAbove(int64_t value) const
{
    uint64_t above = 0;
    for (auto it = data.rbegin(); it != data.rend() && it->first > value;
         ++it) {
        above += it->second;
    }
    return above;
}

double
mean(const std::vector<double> &values)
{
    if (values.empty())
        return 0.0;
    double acc = 0.0;
    for (double v : values)
        acc += v;
    return acc / static_cast<double>(values.size());
}

} // namespace aregion

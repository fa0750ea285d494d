#include "support/telemetry.hh"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <sstream>

#include "support/table.hh"

namespace aregion::telemetry {

namespace {

uint64_t
steadyNowNs()
{
    return static_cast<uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            std::chrono::steady_clock::now().time_since_epoch())
            .count());
}

/** Doubles print with enough digits to round-trip but without
 *  locale surprises. */
std::string
fmtDouble(double v)
{
    std::ostringstream out;
    out.precision(12);
    out << v;
    return out.str();
}

} // namespace

Registry &
Registry::global()
{
    static Registry instance;
    return instance;
}

std::atomic<uint64_t> &
Registry::counter(const std::string &key)
{
    // map nodes are stable, so the reference outlives the lock; the
    // value itself is atomic, so later increments need no lock.
    std::lock_guard<std::mutex> lock(mu);
    return counters[key];
}

void
Registry::add(const std::string &key, uint64_t n)
{
    counter(key).fetch_add(n, std::memory_order_relaxed);
}

void
Registry::set(const std::string &key, double value)
{
    std::lock_guard<std::mutex> lock(mu);
    gauges[key] = value;
}

Histogram &
Registry::histogram(const std::string &key)
{
    std::lock_guard<std::mutex> lock(mu);
    return hists[key];
}

void
Registry::merge(const std::string &key, const Histogram &local)
{
    std::lock_guard<std::mutex> lock(mu);
    hists[key].merge(local);
}

uint64_t
Registry::counterValue(const std::string &key) const
{
    std::lock_guard<std::mutex> lock(mu);
    auto it = counters.find(key);
    return it == counters.end()
               ? 0
               : it->second.load(std::memory_order_relaxed);
}

double
Registry::gaugeValue(const std::string &key) const
{
    std::lock_guard<std::mutex> lock(mu);
    auto it = gauges.find(key);
    return it == gauges.end() ? 0.0 : it->second;
}

bool
Registry::has(const std::string &key) const
{
    std::lock_guard<std::mutex> lock(mu);
    return counters.count(key) || gauges.count(key) ||
           hists.count(key);
}

std::vector<std::string>
Registry::keys() const
{
    std::lock_guard<std::mutex> lock(mu);
    std::vector<std::string> out;
    for (const auto &[k, v] : counters)
        out.push_back(k);
    for (const auto &[k, v] : gauges)
        out.push_back(k);
    for (const auto &[k, v] : hists)
        out.push_back(k);
    // The three maps are individually sorted; merge-sort the result.
    std::sort(out.begin(), out.end());
    return out;
}

void
Registry::reset()
{
    std::lock_guard<std::mutex> lock(mu);
    for (auto &[k, v] : counters)
        v.store(0, std::memory_order_relaxed);
    for (auto &[k, v] : gauges)
        v = 0.0;
    for (auto &[k, v] : hists)
        v = Histogram{};
}

std::string
jsonQuote(const std::string &s)
{
    std::string out = "\"";
    for (char c : s) {
        switch (c) {
          case '"': out += "\\\""; break;
          case '\\': out += "\\\\"; break;
          case '\n': out += "\\n"; break;
          case '\t': out += "\\t"; break;
          case '\r': out += "\\r"; break;
          default:
            if (static_cast<unsigned char>(c) < 0x20) {
                char buf[8];
                std::snprintf(buf, sizeof buf, "\\u%04x", c);
                out += buf;
            } else {
                out += c;
            }
        }
    }
    out += '"';
    return out;
}

std::string
Registry::toJson(int indent) const
{
    const std::string pad(static_cast<size_t>(indent), ' ');
    const std::string pad2 = pad + pad;
    std::ostringstream out;
    std::lock_guard<std::mutex> lock(mu);

    out << "{\n" << pad << "\"counters\": {";
    bool first = true;
    for (const auto &[k, v] : counters) {
        out << (first ? "\n" : ",\n") << pad2 << jsonQuote(k) << ": "
            << v.load(std::memory_order_relaxed);
        first = false;
    }
    out << (first ? "" : "\n" + pad) << "},\n";

    out << pad << "\"gauges\": {";
    first = true;
    for (const auto &[k, v] : gauges) {
        out << (first ? "\n" : ",\n") << pad2 << jsonQuote(k) << ": "
            << fmtDouble(v);
        first = false;
    }
    out << (first ? "" : "\n" + pad) << "},\n";

    out << pad << "\"histograms\": {";
    first = true;
    for (const auto &[k, h] : hists) {
        out << (first ? "\n" : ",\n") << pad2 << jsonQuote(k) << ": {"
            << "\"count\": " << h.count();
        if (h.count() == 0) {
            // No samples: emit null, not 0.0 — downstream consumers
            // must be able to tell "empty series" from "min of zero".
            out << ", \"mean\": null, \"min\": null"
                << ", \"max\": null, \"p95\": null}";
        } else {
            out << ", \"mean\": " << fmtDouble(h.mean())
                << ", \"min\": " << h.min() << ", \"max\": " << h.max()
                << ", \"p95\": " << h.percentile(0.95) << "}";
        }
        first = false;
    }
    out << (first ? "" : "\n" + pad) << "}\n}";
    return out.str();
}

std::string
Registry::toTable() const
{
    TextTable table({"key", "kind", "value"});
    std::lock_guard<std::mutex> lock(mu);
    for (const auto &[k, v] : counters) {
        table.addRow({k, "counter",
                      std::to_string(v.load(std::memory_order_relaxed))});
    }
    for (const auto &[k, v] : gauges)
        table.addRow({k, "gauge", TextTable::fmt(v, 3)});
    for (const auto &[k, h] : hists) {
        if (h.count() == 0) {
            table.addRow({k, "histogram", "n=0 (empty)"});
        } else {
            table.addRow({k, "histogram",
                          "n=" + std::to_string(h.count()) +
                              " mean=" + TextTable::fmt(h.mean(), 1) +
                              " max=" + std::to_string(h.max())});
        }
    }
    return table.render();
}

ScopedTimerUs::ScopedTimerUs(std::atomic<uint64_t> &slot_)
    : slot(slot_), startNs(steadyNowNs())
{
}

ScopedTimerUs::~ScopedTimerUs()
{
    slot.fetch_add((steadyNowNs() - startNs) / 1000,
                   std::memory_order_relaxed);
}

} // namespace aregion::telemetry

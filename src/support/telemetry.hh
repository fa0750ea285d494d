/**
 * @file
 * Process-wide telemetry: a named counter/gauge/histogram registry
 * with JSON and text-table exporters.
 *
 * Keys are hierarchical dotted strings ("machine.abort.conflict",
 * "jit.pass.gvn_us"); the full schema lives in docs/TELEMETRY.md and
 * is enforced against the catalog in telemetry_keys.hh by the
 * `verify_docs` test. Design constraints:
 *
 *  - Hot paths never pay a string lookup: instrumented modules cache
 *    the reference returned by counter()/histogram() once (references
 *    are stable for the process lifetime; reset() zeroes values in
 *    place and never invalidates them).
 *  - The registry is deterministic: all containers iterate in sorted
 *    key order, so the JSON export is byte-stable across runs.
 *
 * Thread-safety (for the parallel experiment driver,
 * support/parallel.hh): counter slots are atomics, so cached
 * references can be incremented from concurrent experiment runs, and
 * every registry method takes an internal mutex. One exception by
 * design: histogram() returns a plain Histogram reference, so
 * concurrent writers must accumulate into a local Histogram and
 * publish it with merge() (what Machine::publishTelemetry does).
 */

#ifndef AREGION_SUPPORT_TELEMETRY_HH
#define AREGION_SUPPORT_TELEMETRY_HH

#include <atomic>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <vector>

#include "support/statistics.hh"

namespace aregion::telemetry {

/**
 * The process-wide registry. Access through Registry::global();
 * instances can also be created standalone (tests, isolated tools).
 */
class Registry
{
  public:
    /** The process-wide instance. */
    static Registry &global();

    /** Monotonic counter slot for `key`, created at zero on first
     *  use. The reference stays valid for the registry's lifetime,
     *  and being atomic it may be incremented from any thread. */
    std::atomic<uint64_t> &counter(const std::string &key);

    /** counter(key) += n. */
    void add(const std::string &key, uint64_t n = 1);

    /** Last-write-wins gauge (floating point). */
    void set(const std::string &key, double value);

    /** Sparse histogram slot for `key` (same stability guarantee as
     *  counter()). NOT safe for concurrent writers — accumulate into
     *  a local Histogram and publish with merge(). */
    Histogram &histogram(const std::string &key);

    /** Locked histogram(key).merge(local): the one histogram write
     *  path that is safe from concurrent experiment threads. */
    void merge(const std::string &key, const Histogram &local);

    /** Counter value, 0 when the key was never registered. */
    uint64_t counterValue(const std::string &key) const;

    /** Gauge value, 0.0 when the key was never registered. */
    double gaugeValue(const std::string &key) const;

    bool has(const std::string &key) const;

    /** All registered keys (counters, gauges, histograms), sorted. */
    std::vector<std::string> keys() const;

    /** Zero every counter/gauge/histogram in place. Cached
     *  references stay valid; keys stay registered. */
    void reset();

    // --- Export ---------------------------------------------------
    /**
     * JSON object with stable (sorted) key ordering:
     * {"counters": {...}, "gauges": {...}, "histograms": {key:
     * {count, mean, min, max, p95}}}.
     */
    std::string toJson(int indent = 2) const;

    /** Human-readable table of every key (support/table.hh). */
    std::string toTable() const;

  private:
    // std::map never moves nodes, so atomic values (non-movable) are
    // fine and cached counter references survive later insertions.
    mutable std::mutex mu;
    std::map<std::string, std::atomic<uint64_t>> counters;
    std::map<std::string, double> gauges;
    std::map<std::string, Histogram> hists;
};

/**
 * RAII wall-clock timer accumulating elapsed microseconds into a
 * counter slot (always on — used for the per-pass JIT timing
 * "jit.pass.*_us" keys, which run at compile frequency, not
 * simulation frequency).
 */
class ScopedTimerUs
{
  public:
    explicit ScopedTimerUs(std::atomic<uint64_t> &slot_);
    ~ScopedTimerUs();

    ScopedTimerUs(const ScopedTimerUs &) = delete;
    ScopedTimerUs &operator=(const ScopedTimerUs &) = delete;

  private:
    std::atomic<uint64_t> &slot;
    uint64_t startNs;
};

/** Escape and quote a string for JSON output. */
std::string jsonQuote(const std::string &s);

} // namespace aregion::telemetry

#endif // AREGION_SUPPORT_TELEMETRY_HH

/**
 * @file
 * Deterministic fault-injection substrate.
 *
 * A failpoint is a named site in the code (e.g. "machine.interrupt")
 * that production code consults through a cached handle; when armed,
 * each consultation ("hit") deterministically decides whether the
 * site fires this time. Triggers:
 *
 *   p<float>   fire each hit independently with the given probability
 *   n<N>       fire on every Nth hit (hits N, 2N, 3N, ...)
 *   once<N>    fire exactly once, on the Nth hit
 *
 * Any trigger may carry an integer payload with an `=V` suffix
 * (e.g. `machine.capacity:p0.5=24`); the hook site interprets it
 * (for capacity pressure it is the shrunken effective line count).
 *
 * Everything is off by default: an unarmed site costs a null-pointer
 * test (the hook caches `Registry::find()` once, and the surrounding
 * code guards on one bool), so failpoints can stay in release
 * binaries without measurable overhead.
 *
 * Determinism: firing decisions are pure functions of (global seed,
 * failpoint name, hit index) — no hidden RNG state — so a run with
 * the same seed and the same spec replays exactly, including under
 * the parallel experiment driver (hit indices are claimed with an
 * atomic counter; cross-thread interleaving can permute which thread
 * observes which hit, but single-machine runs are bit-reproducible).
 *
 * Configuration: the environment variable
 * `AREGION_FAILPOINTS=<name:spec>[,<name:spec>...]` is read the
 * first time the global registry is touched (the seed comes from
 * `AREGION_FAILPOINT_SEED` when set), or programmatically via
 * configure()/arm(). The bench binaries take no injection flags of
 * their own: their JSON export records the armed set and seed
 * whenever failpoints are armed. See docs/RESILIENCE.md for the full
 * grammar.
 */

#ifndef AREGION_SUPPORT_FAILPOINT_HH
#define AREGION_SUPPORT_FAILPOINT_HH

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

namespace aregion::failpoint {

// Canonical failpoint names. Hook sites and tests reference these
// constants so a typo is a compile error (same convention as
// telemetry_keys.hh).
inline constexpr const char *kMachineInterrupt = "machine.interrupt";
inline constexpr const char *kMachineCapacity = "machine.capacity";
inline constexpr const char *kMachineAssert = "machine.assert";
inline constexpr const char *kMachineConflict = "machine.conflict";
inline constexpr const char *kMachineCommitStall =
    "machine.commit_stall";
inline constexpr const char *kTimingMispredict = "timing.mispredict";
// Negative self-tests for the robustness layer (docs/RESILIENCE.md):
// plant a known rollback bug / aborted-work trace that the
// bisimulation oracle / leakage observer must catch. The names
// double as their telemetry counter keys.
inline constexpr const char *kOracleDivergence =
    "oracle.inject.divergence";
inline constexpr const char *kMachineLeak = "machine.inject.leak";

/** How an armed failpoint decides to fire. */
enum class Trigger : uint8_t {
    Probability,    ///< p<float>: independent Bernoulli per hit
    EveryNth,       ///< n<N>: hits N, 2N, 3N, ...
    OneShot,        ///< once<N>: exactly hit N
};

/** Parsed trigger specification. */
struct Spec
{
    Trigger trigger = Trigger::Probability;
    double probability = 0.0;   ///< Trigger::Probability
    uint64_t n = 1;             ///< period (EveryNth) / hit (OneShot)
    int64_t value = 0;          ///< optional `=V` payload, 0 if absent
};

/**
 * Parse a trigger spec ("p0.01", "n100", "once5", optionally
 * "...=V"). Returns false and fills *err on malformed input.
 */
bool parseSpec(const std::string &text, Spec *out, std::string *err);

/** One armed failpoint. Handles returned by Registry::find() stay
 *  valid until the point is disarmed (see Registry). */
class Failpoint
{
  public:
    const std::string &name() const { return pointName; }
    const Spec &spec() const { return pointSpec; }
    int64_t value() const { return pointSpec.value; }

    /**
     * Record one hit and decide whether the site fires. Thread-safe;
     * the decision depends only on (seed, name, hit index).
     */
    bool evaluate();

    uint64_t hits() const
    {
        return hitCount.load(std::memory_order_relaxed);
    }
    uint64_t fires() const
    {
        return fireCount.load(std::memory_order_relaxed);
    }

  private:
    friend class Registry;

    std::string pointName;
    Spec pointSpec;
    uint64_t derivedSeed = 0;   ///< mix of registry seed and name
    std::atomic<uint64_t> hitCount{0};
    std::atomic<uint64_t> fireCount{0};
};

/**
 * The process-wide failpoint table. Arm/disarm/configure are
 * control-plane operations and must not race with in-flight
 * evaluate() calls (arm before starting machines, disarm after they
 * finish); evaluate() itself is safe from any thread.
 */
class Registry
{
  public:
    /** The global instance; reads AREGION_FAILPOINTS /
     *  AREGION_FAILPOINT_SEED once on first access. */
    static Registry &global();

    /** Arm (or re-arm, resetting counters) a failpoint. */
    void arm(const std::string &name, const Spec &spec);

    /**
     * Arm every entry of a comma-separated `name:spec` list. Every
     * well-formed entry is armed even when other entries are
     * malformed. Returns the number of failpoints armed, or -1 if
     * any entry was malformed (with *err describing every bad entry,
     * '; '-joined).
     */
    int configure(const std::string &list, std::string *err = nullptr);

    /** Remove one failpoint / all failpoints. Invalidates handles. */
    void disarm(const std::string &name);
    void disarmAll();

    /**
     * Set the base seed. Re-derives the per-point seeds of every
     * armed failpoint and resets their hit/fire counters, so
     * seed-then-arm and arm-then-seed give the same stream.
     */
    void setSeed(uint64_t seed);
    uint64_t seed() const;

    /** Cheap any-armed test for wrapping whole hook blocks. */
    bool anyArmed() const
    {
        return armedCount.load(std::memory_order_relaxed) > 0;
    }

    /** Handle for a hook site to cache; nullptr when not armed. */
    Failpoint *find(const std::string &name);

    /** Convenience: find() + evaluate() (slow path; hooks on hot
     *  paths should cache the handle instead). */
    bool fire(const std::string &name);

    uint64_t hitCount(const std::string &name) const;
    uint64_t fireCount(const std::string &name) const;

    /** Names of all armed failpoints, sorted. */
    std::vector<std::string> armedNames() const;

    /** Canonical `name:spec,...` rendering of the armed set (what
     *  the bench harness records in its JSON export). */
    std::string describe() const;

  private:
    Registry();

    uint64_t deriveSeed(const std::string &name) const;

    mutable std::mutex mu;
    uint64_t baseSeed = 0;
    // unique_ptr: node addresses handed out by find() must survive
    // unrelated insertions.
    std::map<std::string, std::unique_ptr<Failpoint>> points;
    std::atomic<size_t> armedCount{0};
};

} // namespace aregion::failpoint

#endif // AREGION_SUPPORT_FAILPOINT_HH

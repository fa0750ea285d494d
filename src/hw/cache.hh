/**
 * @file
 * Set-associative cache model with LRU replacement and an optional
 * next-line stream prefetcher, used by the timing model for load
 * latencies (Table 1: 32KB/4-way L1 at 4 cycles, 4MB/8-way L2 at 20
 * cycles, 100 ns memory).
 */

#ifndef AREGION_HW_CACHE_HH
#define AREGION_HW_CACHE_HH

#include <cstddef>
#include <cstdint>
#include <vector>

namespace aregion::hw {

/** Words per cache line (64 B lines of 8-byte words), the one line
 *  size of the machine's speculative footprint (HwConfig::lineWords)
 *  and of the timing model's caches. */
inline constexpr int kLineWords = 8;

/** One cache level (addresses are line numbers). */
class Cache
{
  public:
    Cache(int num_lines, int assoc);

    /** Touch a line; true on hit. Installs on miss. */
    bool access(uint64_t line);

    /** Install without hit accounting (prefetch). */
    void install(uint64_t line);

    uint64_t hits = 0;
    uint64_t misses = 0;

  private:
    struct Way
    {
        uint64_t line = ~0ull;
        uint64_t lastUse = 0;
    };

    /** Set index of a line; the division is a shift/mask whenever
     *  the geometry is a power of two (every Table 1 config is). */
    size_t
    setOf(uint64_t line) const
    {
        return static_cast<size_t>(
            setsPow2 ? line & setMask
                     : line % static_cast<uint64_t>(numSets));
    }

    int assoc;
    int numSets;
    bool setsPow2;
    uint64_t setMask;
    std::vector<Way> ways;      ///< numSets x assoc
    uint64_t clock = 0;
};

/** L1 + L2 + memory hierarchy for the timing model. */
class CacheHierarchy
{
  public:
    CacheHierarchy(int l1_lines, int l1_assoc, int l2_lines,
                   int l2_assoc, int l1_lat, int l2_lat, int mem_lat,
                   bool prefetch);

    /** Latency (cycles) of a data access at the word address. */
    int accessLatency(uint64_t word_addr);

    uint64_t l1Misses() const { return l1.misses; }
    uint64_t l2Misses() const { return l2.misses; }

  private:
    Cache l1;
    Cache l2;
    int l1Lat;
    int l2Lat;
    int memLat;
    bool prefetch;
    uint64_t lastMissLine = ~0ull;
};

} // namespace aregion::hw

#endif // AREGION_HW_CACHE_HH

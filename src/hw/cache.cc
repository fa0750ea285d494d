#include "hw/cache.hh"

#include <bit>

#include "support/logging.hh"

namespace aregion::hw {

Cache::Cache(int num_lines, int assoc_)
    : assoc(assoc_), numSets(num_lines / assoc_),
      ways(static_cast<size_t>(num_lines))
{
    AREGION_ASSERT(num_lines % assoc_ == 0, "lines not divisible");
    AREGION_ASSERT(numSets > 0, "empty cache");
    const auto sets = static_cast<uint64_t>(numSets);
    setsPow2 = (sets & (sets - 1)) == 0;
    setMask = sets - 1;
}

bool
Cache::access(uint64_t line)
{
    ++clock;
    const size_t set = setOf(line);
    Way *lru = nullptr;
    for (int w = 0; w < assoc; ++w) {
        Way &way = ways[set * static_cast<size_t>(assoc) +
                        static_cast<size_t>(w)];
        if (way.line == line) {
            way.lastUse = clock;
            ++hits;
            return true;
        }
        if (!lru || way.lastUse < lru->lastUse)
            lru = &way;
    }
    ++misses;
    lru->line = line;
    lru->lastUse = clock;
    return false;
}

void
Cache::install(uint64_t line)
{
    ++clock;
    const size_t set = setOf(line);
    Way *lru = nullptr;
    for (int w = 0; w < assoc; ++w) {
        Way &way = ways[set * static_cast<size_t>(assoc) +
                        static_cast<size_t>(w)];
        if (way.line == line) {
            way.lastUse = clock;
            return;
        }
        if (!lru || way.lastUse < lru->lastUse)
            lru = &way;
    }
    lru->line = line;
    lru->lastUse = clock;
}

CacheHierarchy::CacheHierarchy(int l1_lines, int l1_assoc,
                               int l2_lines, int l2_assoc, int l1_lat,
                               int l2_lat, int mem_lat, bool prefetch_)
    : l1(l1_lines, l1_assoc), l2(l2_lines, l2_assoc), l1Lat(l1_lat),
      l2Lat(l2_lat), memLat(mem_lat), prefetch(prefetch_)
{
}

int
CacheHierarchy::accessLatency(uint64_t word_addr)
{
    const uint64_t line = word_addr / kLineWords;
    if (l1.access(line))
        return l1Lat;
    // Stream prefetch: a second consecutive miss line pulls the next
    // line into both levels.
    if (prefetch) {
        if (line == lastMissLine + 1) {
            l1.install(line + 1);
            l2.install(line + 1);
        }
        lastMissLine = line;
    }
    if (l2.access(line))
        return l2Lat;
    return memLat;
}

} // namespace aregion::hw

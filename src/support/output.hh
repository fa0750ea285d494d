/**
 * @file
 * A program's printed output stream (the values `print` emits, in
 * order): the checksum every executor's result is compared by, and
 * the short rendering failure messages quote.
 */

#ifndef AREGION_SUPPORT_OUTPUT_HH
#define AREGION_SUPPORT_OUTPUT_HH

#include <cstdint>
#include <sstream>
#include <string>
#include <vector>

#include "support/fnv.hh"

namespace aregion {

/**
 * FNV-1a over the eight bytes of each value, low byte first. The
 * interpreter, the machine and perfbench's correctness check must
 * agree on it, and the golden table records it, so it may not change
 * (its basis is FNV's offset basis with the last digit dropped).
 */
inline uint64_t
outputChecksum(const std::vector<int64_t> &output)
{
    uint64_t h = 1469598103934665603ULL;
    for (const int64_t v : output)
        h = fnvWord(h, static_cast<uint64_t>(v));
    return h;
}

/** "[<count>] v0 v1 ..." with at most the first eight values. */
inline std::string
outputString(const std::vector<int64_t> &output)
{
    std::ostringstream os;
    os << "[" << output.size() << "]";
    const size_t show = output.size() < 8 ? output.size() : 8;
    for (size_t i = 0; i < show; ++i)
        os << " " << output[i];
    if (show < output.size())
        os << " ...";
    return os.str();
}

} // namespace aregion

#endif // AREGION_SUPPORT_OUTPUT_HH

/**
 * @file
 * FNV-1a, the one byte fold and the one word fold every hash here is
 * built from. Each caller starts from its own basis: the store keys
 * and failpoint name hashes use kFnvOffsetBasis, while the output
 * checksum and the golden region fingerprint use FNV's basis with
 * its last digit dropped. Recorded values depend on both, so neither
 * may change.
 */

#ifndef AREGION_SUPPORT_FNV_HH
#define AREGION_SUPPORT_FNV_HH

#include <cstdint>

namespace aregion {

inline constexpr uint64_t kFnvOffsetBasis = 0xcbf29ce484222325ULL;
inline constexpr uint64_t kFnvPrime = 0x100000001b3ULL;

/** Fold one byte into the running hash @p h. */
constexpr uint64_t
fnvByte(uint64_t h, uint8_t byte)
{
    return (h ^ byte) * kFnvPrime;
}

/** Fold the eight bytes of @p word into @p h, low byte first. */
constexpr uint64_t
fnvWord(uint64_t h, uint64_t word)
{
    for (int b = 0; b < 8; ++b)
        h = fnvByte(h, static_cast<uint8_t>(word >> (8 * b)));
    return h;
}

} // namespace aregion

#endif // AREGION_SUPPORT_FNV_HH

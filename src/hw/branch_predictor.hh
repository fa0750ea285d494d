/**
 * @file
 * Branch prediction: a combining (tournament) predictor with gshare
 * and bimodal components (Table 1: "combine: 64K gshare/16K bimod"),
 * plus a last-target table for indirect calls.
 */

#ifndef AREGION_HW_BRANCH_PREDICTOR_HH
#define AREGION_HW_BRANCH_PREDICTOR_HH

#include <cstddef>
#include <cstdint>
#include <vector>

namespace aregion::hw {

/** Two-bit saturating counter table helper. Counters are packed
 *  four per byte, so the 64K-entry gshare table occupies 16 KB of
 *  host memory — small enough that the simulator's random index
 *  stream mostly hits the host cache. */
class CounterTable
{
  public:
    explicit CounterTable(size_t entries)
        : indexMask(entries - 1), table((entries + 3) / 4, 0xaa)
    {
        // 0xaa = four counters at 2 (weakly taken).
    }

    bool
    taken(size_t index) const
    {
        const size_t i = index & indexMask;
        return ((table[i >> 2] >> ((i & 3) * 2)) & 3) >= 2;
    }

    void
    update(size_t index, bool taken_outcome)
    {
        const size_t i = index & indexMask;
        uint8_t &byte = table[i >> 2];
        const int shift = static_cast<int>(i & 3) * 2;
        const uint8_t c = (byte >> shift) & 3;
        if (taken_outcome && c < 3)
            byte = static_cast<uint8_t>(byte + (1u << shift));
        else if (!taken_outcome && c > 0)
            byte = static_cast<uint8_t>(byte - (1u << shift));
    }

  private:
    size_t indexMask;
    std::vector<uint8_t> table;
};

/** The combining predictor. */
class BranchPredictor
{
  public:
    BranchPredictor(size_t gshare_entries = 64 * 1024,
                    size_t bimodal_entries = 16 * 1024,
                    size_t target_entries = 4 * 1024);

    /** Predict the direction of the conditional branch at pc. */
    bool predictTaken(uint64_t pc) const;

    /** Train with the actual outcome. */
    void update(uint64_t pc, bool taken);

    /** Last-target prediction for indirect calls (0 = no entry). */
    uint64_t predictTarget(uint64_t pc) const;
    void updateTarget(uint64_t pc, uint64_t target);

  private:
    size_t gshareIndex(uint64_t pc) const;

    CounterTable gshare;
    CounterTable bimodal;
    CounterTable chooser;       ///< >=2 selects gshare
    size_t gshareMask = 0;
    uint64_t history = 0;
    std::vector<uint64_t> targets;
};

} // namespace aregion::hw

#endif // AREGION_HW_BRANCH_PREDICTOR_HH

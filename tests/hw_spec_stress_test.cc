/**
 * @file
 * Wraparound/tombstone stress tests for the machine's epoch-tagged
 * speculative-state containers (hw/spec_state.hh).
 *
 * A full machine run rarely reaches these corners: the store buffer
 * seldom grows mid-epoch and probe chains seldom wrap the table mask.
 * Here the containers are driven directly.
 */

#include <cstdint>
#include <random>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include <gtest/gtest.h>

#include "hw/spec_state.hh"

using namespace aregion::hw;

namespace {

/** Addresses whose home slot is `slot` in a table of size 2^bits. */
std::vector<uint64_t>
addrsForSlot(uint64_t slot, int bits, size_t count)
{
    const uint64_t mask = (1ull << bits) - 1;
    std::vector<uint64_t> out;
    for (uint64_t a = 1; out.size() < count; ++a) {
        if ((specHashMix(a) & mask) == slot)
            out.push_back(a);
    }
    return out;
}

} // namespace

// ---------------------------------------------------------------
// StoreBuffer
// ---------------------------------------------------------------

TEST(StoreBuffer, ProbeWrapsAroundMaskBoundary)
{
    StoreBuffer sb;
    sb.init(8);
    sb.beginEpoch();

    // Four addresses all hashing to the last slot: the probe chain
    // must wrap 7 -> 0 -> 1 -> 2 and stay findable.
    const std::vector<uint64_t> addrs = addrsForSlot(7, 3, 4);
    for (size_t i = 0; i < addrs.size(); ++i)
        sb.put(addrs[i], static_cast<int64_t>(100 + i));

    for (size_t i = 0; i < addrs.size(); ++i) {
        const int64_t *v = sb.lookup(addrs[i]);
        ASSERT_NE(v, nullptr) << "addr " << addrs[i];
        EXPECT_EQ(*v, static_cast<int64_t>(100 + i));
    }

    // Overwrite through the wrapped chain.
    sb.put(addrs.back(), -7);
    EXPECT_EQ(*sb.lookup(addrs.back()), -7);
    EXPECT_EQ(*sb.lookup(addrs.front()), 100);
}

TEST(StoreBuffer, GrowMidEpochPreservesLiveEntries)
{
    StoreBuffer sb;
    sb.init(8);
    sb.beginEpoch();

    // 200 distinct addresses force several doublings (grow fires
    // above 3/4 load). Every entry must survive each rehash.
    for (uint64_t a = 1; a <= 200; ++a)
        sb.put(a * 0x10001ull, static_cast<int64_t>(a));

    EXPECT_GE(sb.slots.size(), 256u);
    EXPECT_EQ(sb.live.size(), 200u);
    for (uint64_t a = 1; a <= 200; ++a) {
        const int64_t *v = sb.lookup(a * 0x10001ull);
        ASSERT_NE(v, nullptr) << "addr " << a * 0x10001ull;
        EXPECT_EQ(*v, static_cast<int64_t>(a));
    }
    EXPECT_EQ(sb.lookup(0xdeadull), nullptr);
}

TEST(StoreBuffer, StaleEpochSlotsActAsTombstones)
{
    StoreBuffer sb;
    sb.init(8);
    sb.beginEpoch();

    const std::vector<uint64_t> addrs = addrsForSlot(7, 3, 3);
    for (uint64_t a : addrs)
        sb.put(a, 1);

    // New epoch: the old chain is dead, and a fresh entry claiming
    // the home slot must not resurrect the stale tail behind it.
    sb.beginEpoch();
    sb.put(addrs[0], 2);
    EXPECT_EQ(*sb.lookup(addrs[0]), 2);
    EXPECT_EQ(sb.lookup(addrs[1]), nullptr);
    EXPECT_EQ(sb.lookup(addrs[2]), nullptr);

    // The stale slots are reusable storage for this epoch.
    sb.put(addrs[1], 3);
    EXPECT_EQ(*sb.lookup(addrs[1]), 3);
    EXPECT_EQ(sb.lookup(addrs[2]), nullptr);
}

TEST(StoreBuffer, RandomizedModelCheckAcrossEpochs)
{
    StoreBuffer sb;
    sb.init(8);

    std::mt19937_64 rng(0xA11CE5ull);
    for (int epoch = 0; epoch < 50; ++epoch) {
        sb.beginEpoch();
        std::unordered_map<uint64_t, int64_t> model;
        const int writes = 1 + static_cast<int>(rng() % 120);
        for (int i = 0; i < writes; ++i) {
            // Small address space -> heavy collisions and frequent
            // same-address overwrites.
            const uint64_t addr = rng() % 64;
            const int64_t value = static_cast<int64_t>(rng());
            sb.put(addr, value);
            model[addr] = value;
        }
        for (uint64_t addr = 0; addr < 64; ++addr) {
            const int64_t *v = sb.lookup(addr);
            auto it = model.find(addr);
            if (it == model.end()) {
                EXPECT_EQ(v, nullptr) << "epoch " << epoch
                                      << " addr " << addr;
            } else {
                ASSERT_NE(v, nullptr) << "epoch " << epoch
                                      << " addr " << addr;
                EXPECT_EQ(*v, it->second);
            }
        }
        // `live` holds exactly the distinct addresses written.
        EXPECT_EQ(sb.live.size(), model.size());
        std::unordered_set<uint64_t> live_addrs;
        for (uint32_t idx : sb.live)
            live_addrs.insert(sb.slots[idx].addr);
        EXPECT_EQ(live_addrs.size(), model.size());
    }
}

TEST(StoreBuffer, GrowTriggersExactlyAtThreeQuarterLoad)
{
    StoreBuffer sb;
    sb.init(8);
    sb.beginEpoch();

    // The resize boundary is live*4 > slots*3: an 8-slot table
    // tolerates exactly 6 live entries, the 7th doubles it; the
    // 16-slot table tolerates 12, the 13th doubles again. Pinning
    // the exact crossing catches off-by-ones that a bulk fill
    // (GrowMidEpochPreservesLiveEntries) glides over.
    for (uint64_t a = 1; a <= 6; ++a) {
        sb.put(a * 0x9e37ull, static_cast<int64_t>(a));
        EXPECT_EQ(sb.slots.size(), 8u) << "after entry " << a;
    }
    sb.put(7 * 0x9e37ull, 7);
    EXPECT_EQ(sb.slots.size(), 16u);
    EXPECT_EQ(sb.mask, 15u);
    EXPECT_EQ(sb.live.size(), 7u);

    for (uint64_t a = 8; a <= 12; ++a) {
        sb.put(a * 0x9e37ull, static_cast<int64_t>(a));
        EXPECT_EQ(sb.slots.size(), 16u) << "after entry " << a;
    }
    sb.put(13 * 0x9e37ull, 13);
    EXPECT_EQ(sb.slots.size(), 32u);

    // Overwrites at the boundary are not insertions and must never
    // advance the load factor.
    const size_t live_before = sb.live.size();
    sb.put(1 * 0x9e37ull, -1);
    EXPECT_EQ(sb.live.size(), live_before);
    EXPECT_EQ(sb.slots.size(), 32u);

    for (uint64_t a = 1; a <= 13; ++a) {
        const int64_t *v = sb.lookup(a * 0x9e37ull);
        ASSERT_NE(v, nullptr) << "addr " << a;
        EXPECT_EQ(*v, a == 1 ? -1 : static_cast<int64_t>(a));
    }
}

TEST(StoreBuffer, WrappedChainSurvivesResizeBoundary)
{
    StoreBuffer sb;
    sb.init(8);
    sb.beginEpoch();

    // Seven addresses all homed at the last slot: the probe chain
    // wraps 7 -> 0 -> ... and the 7th insertion crosses the resize
    // boundary mid-chain, so grow() must rehash a fully wrapped
    // chain into the doubled table without losing or aliasing an
    // entry.
    const std::vector<uint64_t> addrs = addrsForSlot(7, 3, 7);
    for (size_t i = 0; i < addrs.size(); ++i)
        sb.put(addrs[i], static_cast<int64_t>(1000 + i));
    EXPECT_EQ(sb.slots.size(), 16u);
    EXPECT_EQ(sb.live.size(), 7u);

    for (size_t i = 0; i < addrs.size(); ++i) {
        const int64_t *v = sb.lookup(addrs[i]);
        ASSERT_NE(v, nullptr) << "addr " << addrs[i];
        EXPECT_EQ(*v, static_cast<int64_t>(1000 + i));
    }
    EXPECT_EQ(sb.lookup(0xbeefcafeull), nullptr);

    // Overwrite through the rehashed chain, then churn epochs: the
    // grown table's stale slots must tombstone exactly like the
    // original's.
    sb.put(addrs[3], -3);
    EXPECT_EQ(*sb.lookup(addrs[3]), -3);
    sb.beginEpoch();
    for (const uint64_t a : addrs)
        EXPECT_EQ(sb.lookup(a), nullptr) << "addr " << a;
    sb.put(addrs[5], 5);
    EXPECT_EQ(*sb.lookup(addrs[5]), 5);
    EXPECT_EQ(sb.lookup(addrs[6]), nullptr);
}

// ---------------------------------------------------------------
// LineSet
// ---------------------------------------------------------------

TEST(LineSet, WrappedChainAtFixedCapacity)
{
    // Machine geometry: l1Lines=16 -> capacity next_pow2(32) = 32,
    // and the overflow abort bounds the set to 16 members (half
    // load). Fill to that bound with lines homing to the last slot.
    LineSet ls;
    ls.init(32);
    ls.beginEpoch();

    const std::vector<uint64_t> lines = addrsForSlot(31, 5, 16);
    for (uint64_t l : lines)
        ls.insert(l);
    EXPECT_EQ(ls.size(), 16u);
    for (uint64_t l : lines)
        EXPECT_TRUE(ls.contains(l)) << "line " << l;
    EXPECT_FALSE(ls.contains(lines.back() + 1));

    // Duplicate inserts stay idempotent even through the wrap.
    for (uint64_t l : lines)
        ls.insert(l);
    EXPECT_EQ(ls.size(), 16u);
}

TEST(LineSet, EpochResetAndZeroKey)
{
    LineSet ls;
    ls.init(32);
    ls.beginEpoch();

    // Line 0 aliases the zero-initialized key array; only the epoch
    // tag distinguishes "present" from "never written".
    EXPECT_FALSE(ls.contains(0));
    ls.insert(0);
    EXPECT_TRUE(ls.contains(0));
    ls.insert(5);
    EXPECT_EQ(ls.size(), 2u);

    ls.beginEpoch();
    EXPECT_FALSE(ls.contains(0));
    EXPECT_FALSE(ls.contains(5));
    EXPECT_EQ(ls.size(), 0u);
    ls.insert(5);
    EXPECT_TRUE(ls.contains(5));
    EXPECT_EQ(ls.size(), 1u);
}

TEST(LineSet, RandomizedModelCheckAcrossEpochs)
{
    LineSet ls;
    ls.init(32);
    std::mt19937_64 rng(0xBEEFull);
    for (int epoch = 0; epoch < 50; ++epoch) {
        ls.beginEpoch();
        std::unordered_set<uint64_t> model;
        // At most 16 distinct lines: the machine's overflow abort
        // keeps the set at half load, mirrored here.
        while (model.size() < 16) {
            const uint64_t line = rng() % 24;
            ls.insert(line);
            model.insert(line);
        }
        for (uint64_t line = 0; line < 24; ++line)
            EXPECT_EQ(ls.contains(line), model.count(line) > 0)
                << "epoch " << epoch << " line " << line;
        EXPECT_EQ(ls.size(), model.size());
    }
}

TEST(LineSet, OverflowBoundaryWithCollisionHeavyKeys)
{
    LineSet ls;
    ls.init(32);

    // The machine's overflow abort bounds each set to l1Lines
    // distinct lines in a table of 2*l1Lines — half load is the
    // designed-for worst case, so drive it with keys that all home
    // into two adjacent slots: a single 16-deep wrapped probe chain
    // at exactly the occupancy the machine permits.
    const std::vector<uint64_t> a = addrsForSlot(31, 5, 8);
    const std::vector<uint64_t> b = addrsForSlot(0, 5, 8);
    for (int epoch = 0; epoch < 8; ++epoch) {
        ls.beginEpoch();
        for (size_t i = 0; i < 8; ++i) {
            ls.insert(a[i]);
            ls.insert(b[i]);
        }
        EXPECT_EQ(ls.size(), 16u);
        for (const uint64_t line : a)
            EXPECT_TRUE(ls.contains(line)) << "line " << line;
        for (const uint64_t line : b)
            EXPECT_TRUE(ls.contains(line)) << "line " << line;
        // Re-inserting the whole chain at the bound is idempotent:
        // `items` must not pick up duplicates for the commit walk.
        for (const uint64_t line : a)
            ls.insert(line);
        EXPECT_EQ(ls.size(), 16u);
        // A miss probing through the full wrapped chain terminates
        // at the first stale/empty slot.
        EXPECT_FALSE(ls.contains(0x5eedull));
    }
}

TEST(LineSet, ConcurrentEpochChurnAcrossContexts)
{
    // One LineSet per hardware context, epochs advancing at
    // different rates — the concurrent-region picture during a
    // contention run. Each set's membership must be exactly its own
    // current epoch's inserts, no matter how the neighbours churn
    // (they share nothing, but a stray static or epoch-tag aliasing
    // bug would surface exactly here).
    constexpr int kCtxs = 4;
    LineSet sets[kCtxs];
    std::unordered_set<uint64_t> models[kCtxs];
    for (int c = 0; c < kCtxs; ++c) {
        sets[c].init(32);
        sets[c].beginEpoch();
    }

    std::mt19937_64 rng(0xC0FFEEull);
    for (int step = 0; step < 4000; ++step) {
        const int c = static_cast<int>(rng() % kCtxs);
        // Context c re-enters a region (fresh epoch) at a rate that
        // differs per context, so epoch counters drift far apart.
        if (rng() % (4u + static_cast<unsigned>(c) * 7u) == 0) {
            sets[c].beginEpoch();
            models[c].clear();
        }
        if (models[c].size() < 16) {
            const uint64_t line = rng() % 24;
            sets[c].insert(line);
            models[c].insert(line);
        }
        // Spot-check the context touched this step plus one other.
        for (const int v : {c, (c + 1) % kCtxs}) {
            for (uint64_t line = 0; line < 24; ++line)
                EXPECT_EQ(sets[v].contains(line),
                          models[v].count(line) > 0)
                    << "step " << step << " ctx " << v << " line "
                    << line;
            EXPECT_EQ(sets[v].size(), models[v].size());
        }
    }
}

// ---------------------------------------------------------------
// SetOccupancy
// ---------------------------------------------------------------

TEST(SetOccupancy, LazyPerSetEpochReset)
{
    SetOccupancy occ;
    occ.init(4);
    occ.beginEpoch();
    EXPECT_EQ(occ.increment(2), 1);
    EXPECT_EQ(occ.increment(2), 2);
    EXPECT_EQ(occ.increment(0), 1);

    // Set 2's stale count must not leak into the new epoch, even
    // though beginEpoch never touches the per-set arrays.
    occ.beginEpoch();
    EXPECT_EQ(occ.increment(2), 1);
    EXPECT_EQ(occ.increment(3), 1);
    EXPECT_EQ(occ.increment(2), 2);
}

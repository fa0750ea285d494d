#include "hw/oracle.hh"

#include <sstream>

#include "vm/layout.hh"

namespace aregion::hw {

namespace layout = vm::layout;

RollbackOracle::Snapshot &
RollbackOracle::slot(int ctx_id)
{
    const auto idx = static_cast<size_t>(ctx_id);
    if (idx >= snapshots.size())
        snapshots.resize(idx + 1);
    return snapshots[idx];
}

void
RollbackOracle::report(int ctx_id, std::string what)
{
    if (replayValid) {
        std::ostringstream os;
        os << " [seed=" << replaySeed << " ctx=" << ctx_id
           << "; replay: " << replayCommand << "]";
        what += os.str();
    }
    found.push_back({ctx_id, std::move(what)});
}

void
RollbackOracle::setReplayInfo(uint64_t seed, std::string command)
{
    replayValid = true;
    replaySeed = seed;
    replayCommand = std::move(command);
}

int64_t
RollbackOracle::shadowAt(uint64_t addr) const
{
    if (addr < layout::POISON_WORDS)
        return 0;
    const uint64_t idx = addr - layout::POISON_WORDS;
    return idx < shadow.size() ? shadow[idx] : 0;
}

void
RollbackOracle::shadowStore(uint64_t addr, int64_t value)
{
    if (addr < layout::POISON_WORDS)
        return;
    const uint64_t idx = addr - layout::POISON_WORDS;
    if (idx >= shadow.size())
        shadow.resize(idx + 1, 0);
    shadow[idx] = value;
}

void
RollbackOracle::onRunStart(const vm::Heap &heap)
{
    shadowActive = true;
    // Mirror whatever the heap already holds (vtable/subtype
    // metadata, yield flags; allocMark == heapBase at run start).
    shadow.assign(heap.allocMark() - layout::POISON_WORDS, 0);
    for (uint64_t a = layout::POISON_WORDS; a < heap.allocMark(); ++a)
        shadow[a - layout::POISON_WORDS] = heap.load(a);
}

void
RollbackOracle::onNonSpecStore(uint64_t addr, int64_t value)
{
    if (shadowActive)
        shadowStore(addr, value);
}

void
RollbackOracle::onCommitStore(uint64_t addr, int64_t value)
{
    if (shadowActive)
        shadowStore(addr, value);
}

void
RollbackOracle::onSpecRead(int ctx_id, uint64_t addr, int64_t value)
{
    if (!shadowActive)
        return;
    Snapshot &snap = slot(ctx_id);
    if (!snap.valid || snap.readLogOverflow)
        return;
    if (snap.readLog.size() >= kReadLogCap) {
        snap.readLogOverflow = true;
        return;
    }
    snap.readLog.emplace_back(addr, value);
}

void
RollbackOracle::captureBegin(int ctx_id, size_t num_ctxs,
                             const std::vector<int64_t> &regs,
                             int alt_pc, const vm::Heap &heap)
{
    Snapshot &snap = slot(ctx_id);
    snap.valid = true;
    snap.altPc = alt_pc;
    snap.regs = regs;
    snap.allocMark = heap.allocMark();
    snap.readLog.clear();
    snap.readLogOverflow = false;
    // Copying the whole live heap per region entry is O(heap) — fine
    // for the oracle's random-program tests, wrong for benchmarks;
    // that is why the oracle is attach-only.
    snap.heapValid = num_ctxs == 1;
    if (snap.heapValid) {
        snap.heapWords.clear();
        snap.heapWords.reserve(snap.allocMark - layout::POISON_WORDS);
        for (uint64_t a = layout::POISON_WORDS; a < snap.allocMark;
             ++a) {
            snap.heapWords.push_back(heap.load(a));
        }
    }
}

void
RollbackOracle::checkCommit(int ctx_id, size_t num_ctxs,
                            const vm::Heap &heap)
{
    (void)num_ctxs;
    (void)heap;
    if (!shadowActive)
        return;
    Snapshot &snap = slot(ctx_id);
    if (!snap.valid || snap.readLogOverflow)
        return;
    ++commitCheckCount;
    // Serializability: every value this region read from the heap
    // must still be the committed value now that the region itself
    // commits. Eager conflict detection guarantees it — a conflicting
    // commit in the window would have pend-aborted us first.
    for (const auto &[addr, value] : snap.readLog) {
        const int64_t committed = shadowAt(addr);
        if (committed != value) {
            std::ostringstream os;
            os << "serializability violation: committing region read "
               << value << " from word " << addr
               << " but the committed value at commit time is "
               << committed;
            report(ctx_id, os.str());
        }
    }
}

void
RollbackOracle::checkAbort(int ctx_id, size_t num_ctxs,
                           const std::vector<int64_t> &regs, int pc,
                           const vm::Heap &heap, AbortCause cause)
{
    Snapshot &snap = slot(ctx_id);
    if (!snap.valid) {
        report(ctx_id, "abort without a captured begin");
        return;
    }
    snap.valid = false;
    ++checkCount;

    auto diverge = [&](const std::string &what) {
        report(ctx_id, what);
    };

    if (pc != snap.altPc) {
        std::ostringstream os;
        os << "abort resumed at pc " << pc
           << ", expected alternate pc " << snap.altPc;
        diverge(os.str());
    }
    if (regs.size() != snap.regs.size()) {
        std::ostringstream os;
        os << "register file size changed: " << snap.regs.size()
           << " -> " << regs.size();
        diverge(os.str());
    } else {
        for (size_t r = 0; r < regs.size(); ++r) {
            if (regs[r] != snap.regs[r]) {
                std::ostringstream os;
                os << "register r" << r << " not restored: checkpoint "
                   << snap.regs[r] << ", post-abort " << regs[r];
                diverge(os.str());
            }
        }
    }

    // Cross-context global consistency: buffered speculative stores
    // never reach the heap, so after a conflict abort the heap must
    // equal the shadow word-for-word (words allocated speculatively
    // and abandoned read as zero on both sides).
    if (shadowActive && cause == AbortCause::Conflict) {
        ++conflictHeapCheckCount;
        int reported = 0;
        uint64_t mismatches = 0;
        for (uint64_t a = layout::POISON_WORDS; a < heap.allocMark();
             ++a) {
            const int64_t now = heap.load(a);
            const int64_t want = shadowAt(a);
            if (now == want)
                continue;
            ++mismatches;
            if (reported < 8) {
                ++reported;
                std::ostringstream os;
                os << "conflict abort left heap word " << a
                   << " inconsistent with committed state: shadow "
                   << want << ", heap " << now;
                diverge(os.str());
            }
        }
        if (mismatches > 8) {
            std::ostringstream os;
            os << "conflict abort heap check: " << (mismatches - 8)
               << " further mismatching words suppressed";
            diverge(os.str());
        }
    }

    // Heap equivalence holds only if no other context existed at
    // either end of the window (one could have committed stores).
    if (!snap.heapValid || num_ctxs != 1)
        return;
    ++heapCheckCount;
    if (heap.allocMark() < snap.allocMark) {
        std::ostringstream os;
        os << "alloc mark moved backwards: " << snap.allocMark
           << " -> " << heap.allocMark();
        diverge(os.str());
        return;
    }
    for (uint64_t a = layout::POISON_WORDS; a < snap.allocMark; ++a) {
        const int64_t now = heap.load(a);
        const int64_t then =
            snap.heapWords[static_cast<size_t>(a -
                                               layout::POISON_WORDS)];
        if (now != then) {
            std::ostringstream os;
            os << "heap word " << a << " leaked a speculative store: "
               << then << " -> " << now;
            diverge(os.str());
        }
    }
}

void
RollbackOracle::onCommit(int ctx_id)
{
    Snapshot &snap = slot(ctx_id);
    snap.valid = false;
    snap.readLog.clear();
    snap.readLogOverflow = false;
}

} // namespace aregion::hw

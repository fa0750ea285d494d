/**
 * @file
 * Flat word-addressed memory with bump allocation and vtable metadata.
 */

#ifndef AREGION_VM_HEAP_HH
#define AREGION_VM_HEAP_HH

#include <cstdint>
#include <vector>

#include "support/logging.hh"
#include "vm/layout.hh"
#include "vm/program.hh"

namespace aregion::vm {

/**
 * The managed memory image. One instance backs one execution (the
 * interpreter and the machine simulator each build their own, from the
 * same Program, so results are directly comparable).
 *
 * There is no garbage collector; workloads are written to bound their
 * live-heap growth, as the paper's sampling windows do.
 */
class Heap
{
  public:
    /**
     * @param max_threads yield/safepoint flag slots to map (one per
     *        thread context). The default keeps the historical memory
     *        map byte-identical; the contention harness raises it to
     *        run more hardware contexts than layout::MAX_THREADS.
     */
    explicit Heap(const Program &prog, uint64_t max_words = 1ull << 26,
                  int max_threads = layout::MAX_THREADS);

    /** Allocate an instance of the class; fields zero-initialised. */
    uint64_t allocObject(ClassId cls);

    /** Allocate an int/ref array; elements zero-initialised. */
    uint64_t allocArray(int64_t length);

    /** Raw zeroed allocation: the machine simulator writes headers
     *  itself so the writes flow through speculative buffering. */
    uint64_t allocRaw(uint64_t words) { return bump(words); }

    /** Flattened instance field count of a class. */
    int
    fieldCount(ClassId cls) const
    {
        return fieldCounts[static_cast<size_t>(cls)];
    }

    // Inline: these two are the memory interface of the machine
    // simulator's hottest loop, and an out-of-line call per access
    // dominates the load/store path.
    int64_t
    load(uint64_t addr) const
    {
        AREGION_ASSERT(inBounds(addr), "load out of bounds: ", addr);
        return mem[addr];
    }

    void
    store(uint64_t addr, int64_t value)
    {
        AREGION_ASSERT(inBounds(addr), "store out of bounds: ", addr);
        mem[addr] = value;
    }

    /** True if addr points into mapped memory (metadata or heap). */
    bool inBounds(uint64_t addr) const
    {
        return addr >= layout::POISON_WORDS && addr < mem.size();
    }

    /** Address of the vtable entry for (class, slot). */
    uint64_t vtableAddr(ClassId cls, int slot) const;

    /**
     * Subtype matrix metadata: row (classId + 2) x column (classId)
     * holds 1 when the row's class is a subclass of the column's.
     * Rows 0 and 1 (array and reserved pseudo-classes) are zero, so
     * compiled instanceof/checkcast can index with classId + 2
     * without branching on arrays.
     */
    uint64_t subtypeBase() const { return subtypeBaseAddr; }
    int subtypeColumns() const { return numClassesTotal; }

    /** Address of a thread's safepoint/yield poll flag. */
    uint64_t yieldFlagAddr(int thread) const;

    /**
     * Allocation watermark, for atomic-region rollback: objects
     * allocated inside an aborted region are reclaimed by resetting
     * the bump pointer to the mark (the reclaimed range is re-zeroed
     * so re-allocation sees fresh memory).
     */
    uint64_t allocMark() const { return allocPtr; }
    void allocReset(uint64_t mark);

    int maxThreads() const { return numThreads; }

  private:
    uint64_t bump(uint64_t words);

    std::vector<int> fieldCounts;   ///< per-class flattened field count
    std::vector<int64_t> mem;
    uint64_t maxWords;
    int numThreads = layout::MAX_THREADS;
    int numClassesTotal = 0;
    uint64_t vtableBase = 0;
    uint64_t subtypeBaseAddr = 0;
    uint64_t yieldBase = 0;
    uint64_t heapBaseAddr = 0;
    uint64_t allocPtr = 0;
};

} // namespace aregion::vm

#endif // AREGION_VM_HEAP_HH

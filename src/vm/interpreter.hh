/**
 * @file
 * Reference bytecode interpreter with profiling instrumentation.
 *
 * Plays the role of the JVM's first execution tier: it defines the
 * language's observable semantics (the machine simulator must match
 * it bit-for-bit) and gathers the profiles that drive region
 * formation. Threads are deterministic: a round-robin scheduler
 * switches contexts every `quantum` instructions.
 */

#ifndef AREGION_VM_INTERPRETER_HH
#define AREGION_VM_INTERPRETER_HH

#include <cstdint>
#include <deque>
#include <optional>
#include <vector>

#include "vm/heap.hh"
#include "vm/profile.hh"
#include "vm/program.hh"
#include "vm/trap.hh"

namespace aregion::vm {

/** One sampling-marker crossing (see runtime::SampleSpec). */
struct MarkerEvent
{
    int64_t markerId;
    uint64_t instrCount;    ///< instructions executed when crossed
    MethodId method;
};

/** Result of a full interpreter run. */
struct InterpResult
{
    bool completed = false;         ///< main returned
    uint64_t instructions = 0;      ///< bytecodes executed (all threads)
    std::optional<Trap> trap;       ///< set if a trap terminated the run
};

/**
 * The interpreter. Construct, then call run(); observable state
 * (output stream, marker events, heap) stays available afterwards.
 */
class Interpreter
{
  public:
    /**
     * @param prog     program to execute
     * @param profile  optional profile to populate (may be nullptr)
     * @param max_words heap capacity
     * @param max_threads thread-context capacity (see Heap).
     */
    Interpreter(const Program &prog, Profile *profile = nullptr,
                uint64_t max_words = 1ull << 26,
                int max_threads = layout::MAX_THREADS);

    /** The interpreter borrows the program; temporaries would dangle. */
    Interpreter(Program &&, Profile * = nullptr, uint64_t = 0,
                int = 0) = delete;

    /**
     * Run main (and any spawned threads) to completion.
     * @param max_steps safety budget; the run fails if exceeded.
     */
    InterpResult run(uint64_t max_steps = 1ull << 32);

    const std::vector<int64_t> &output() const { return outputStream; }
    const std::vector<MarkerEvent> &markers() const { return markerLog; }
    Heap &heap() { return heapImpl; }

    /** aregion::outputChecksum of the output stream. */
    uint64_t outputChecksum() const;

    /** Scheduler quantum in instructions (deterministic interleave). */
    uint64_t quantum = 50;

  private:
    struct Frame
    {
        MethodId method;
        std::vector<int64_t> regs;
        size_t pc = 0;
        /** Receiver locked on entry for synchronized methods. */
        uint64_t syncReceiver = layout::NULL_REF;
        /** Caller's destination register for the return value. */
        Reg retDst = NO_REG;
    };

    struct ThreadCtx
    {
        int id = 0;
        std::vector<Frame> stack;
        bool finished = false;
        /** Object this thread is blocked acquiring, or NULL_REF. */
        uint64_t blockedOn = layout::NULL_REF;
    };

    /** Execute one instruction on the given thread. */
    void step(ThreadCtx &thread);

    /** Push a new frame for a call. */
    void invoke(ThreadCtx &thread, MethodId callee,
                const std::vector<int64_t> &argv, Reg ret_dst);

    /** Pop the current frame, writing the return value if any. */
    void doReturn(ThreadCtx &thread, std::optional<int64_t> value);

    /** Try to acquire obj's monitor; false -> caller must block. */
    bool monitorTryEnter(ThreadCtx &thread, uint64_t obj);
    void monitorExit(ThreadCtx &thread, uint64_t obj, int pc);

    int64_t &reg(Frame &frame, Reg r);
    uint64_t checkRef(int64_t value, MethodId m, int pc) const;

    const Program &prog;
    Profile *profile;
    Heap heapImpl;
    std::deque<ThreadCtx> threads;
    std::vector<int64_t> outputStream;
    std::vector<MarkerEvent> markerLog;
    uint64_t executed = 0;
};

} // namespace aregion::vm

#endif // AREGION_VM_INTERPRETER_HH

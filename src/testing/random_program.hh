/**
 * @file
 * First-class random program generator for differential fuzzing.
 *
 * The generator is split in two phases so diverging programs can be
 * minimized structurally:
 *
 *   1. generate(): a seed + feature mask is expanded into a GenProgram,
 *      a small statement tree whose operands are abstract pool indices
 *      (resolved modulo the live pool size at render time, so removing
 *      any statement still yields a valid program);
 *   2. renderProgram(): the GenProgram is deterministically lowered to
 *      a vm::Program through the ProgramBuilder.
 *
 * Feature bits gate which statement kinds may appear. Without kTraps
 * every generated program terminates and is trap-free (the legacy
 * property-test contract); with kTraps the generator deliberately
 * emits null derefs, out-of-bounds accesses, divides by zero, failing
 * casts, and negative array sizes at random depths. Value pools are
 * typed (ints vs object refs vs array refs) so a trap is always one
 * of the six architectural TrapKinds and never a wild reference: the
 * interpreter asserts (process abort) on corrupt refs, which would
 * kill the fuzzer instead of feeding it.
 */

#ifndef AREGION_TESTING_RANDOM_PROGRAM_HH
#define AREGION_TESTING_RANDOM_PROGRAM_HH

#include <cstdint>
#include <string>
#include <vector>

#include "support/random.hh"
#include "vm/program.hh"

namespace aregion::testing {

/** Feature mask bits (docs/FUZZING.md). */
enum Feature : uint32_t {
    kArrays        = 1u << 0,   ///< bounds-guarded array round trips
    kObjects       = 1u << 1,   ///< objects, fields, virtual dispatch
    kTraps         = 1u << 2,   ///< trapping constructs at any depth
    kVirtualChains = 1u << 3,   ///< virtual methods calling virtuals
    kMonitors      = 1u << 4,   ///< monitor blocks + sync methods
    kContention    = 1u << 5,   ///< spawned worker contending a lock
    kAbortShapes   = 1u << 6,   ///< biased hot/cold diamonds in loops
    kMultiContext  = 1u << 7,   ///< 2-4 workers contending one object
};

/** The profiles of the property sweeps and oracle grids in tests/:
 *  scalar code, or scalar code plus objects and monitors. */
inline constexpr uint32_t kLegacyScalar = kArrays;
inline constexpr uint32_t kLegacyObjects = kArrays | kObjects | kMonitors;
inline constexpr uint32_t kAllFeatures = (1u << 8) - 1;

/** The canonical masks the fuzz smoke sweeps (docs/FUZZING.md). */
std::vector<uint32_t> canonicalMasks();

/** Parse "all", "legacy", "none" (mask 0), a feature name list
 *  ("traps+arrays"), or a decimal number up to kAllFeatures into a
 *  mask; returns false on garbage. */
bool parseMask(const std::string &text, uint32_t &mask_out);
/** The feature name list, or "none" for mask 0; parseMask reads it
 *  back. */
std::string maskName(uint32_t mask);

/**
 * One abstract statement. a/b/c are pool selectors (reduced modulo
 * the relevant pool size when rendered); imm is a literal whose
 * meaning depends on the kind. Loop and ColdDiamond carry a body.
 */
struct GenStmt
{
    enum class K : uint8_t {
        Binop,          ///< imm = operator index; a,b = int operands
        ConstVal,       ///< imm = value
        ArraySafe,      ///< guarded store+load round trip; imm = len
        FieldTrip,      ///< fresh object field round trip; imm = field
        Diamond,        ///< if/else producing one value
        CallHelper,     ///< a = helper selector; b,c = int args
        Loop,           ///< imm = trip count; body executed per trip
        PrintVal,       ///< print an int pool value
        VirtualDisp,    ///< fresh BoxA/BoxB receiver; imm = class sel
        SyncCall,       ///< two synchronized bumps on a fresh object
        MonitorBlock,   ///< enter/putfield/getfield/exit, fresh object
        ObjNew,         ///< push fresh BoxA/BoxB/BoxC into obj pool
        ObjNull,        ///< push null into obj pool (kTraps)
        ObjField,       ///< field round trip on pooled obj (may trap)
        ArrNew,         ///< push fresh array into arr pool; imm = len
        ArrNull,        ///< push null into arr pool (kTraps)
        ArrRaw,         ///< unguarded astore+aload on pooled array
        DivMaybe,       ///< imm&1 ? rem : div, unguarded divisor
        CastMaybe,      ///< checkcast pooled obj to imm-selected class
        NewArrayMaybe,  ///< newArray(small signed value), may be < 0
        VirtualChain,   ///< two fresh receivers, chained virtual call
        VirtualMaybe,   ///< virtual call on pooled obj (may be null)
        ColdDiamond,    ///< biased branch, cold on iteration imm
        Contention,     ///< spawn worker; imm = worker bumps, a = main
        MultiContext,   ///< 2 + a%3 workers bump one shared object
    };

    K kind;
    uint32_t a = 0, b = 0, c = 0;
    int64_t imm = 0;
    std::vector<GenStmt> body;
};

const char *stmtKindName(GenStmt::K kind);
bool stmtKindFromName(const std::string &name, GenStmt::K &out);

/** A generated program in structural form. */
struct GenProgram
{
    uint64_t seed = 0;
    uint32_t features = 0;
    int64_t seedA = 0;          ///< main's first seed constant
    int64_t seedB = 1;          ///< main's second seed constant
    std::vector<std::vector<GenStmt>> helpers;
    std::vector<GenStmt> main;

    size_t countStmts() const;
};

/** Deterministically lower a GenProgram to executable bytecode. */
vm::Program renderProgram(const GenProgram &gp);

/** Total bytecodes in the rendered main method (minimizer metric). */
size_t renderedMainSize(const GenProgram &gp);

/** True if the rendered program spawns threads (Contention). */
bool usesThreads(const GenProgram &gp);

/** True if the program may execute a trapping construct. */
bool mayTrap(const GenProgram &gp);

/** Seed + feature mask -> GenProgram. */
class RandomProgramGen
{
  public:
    explicit RandomProgramGen(uint64_t seed,
                              uint32_t features = kLegacyScalar)
        : rng(seed), seed(seed), features(features)
    {
    }

    GenProgram generate();

  private:
    void emitStatements(std::vector<GenStmt> &out, int num_helpers,
                        int count, int depth, bool top_level);
    GenStmt makeStmt(GenStmt::K kind);

    Rng rng;
    uint64_t seed;
    uint32_t features;
    bool contentionUsed = false;
    bool multiContextUsed = false;
};

} // namespace aregion::testing

#endif // AREGION_TESTING_RANDOM_PROGRAM_HH

/**
 * @file
 * Tests for the differential fuzzing subsystem (src/testing/,
 * docs/FUZZING.md): generator determinism and feature gating, corpus
 * round-trips, minimizer shrinking power, harness agreement on known
 * shapes, and the trap-attribution parity contract — trap kind,
 * originating bytecode method, and pc must be bit-identical across
 * the interpreter, the IR evaluator after every compile stage, and
 * the machine, even when the fault sits inside an inlined callee.
 */

#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "testing/corpus.hh"
#include "testing/diff_harness.hh"
#include "testing/minimizer.hh"
#include "testing/random_program.hh"
#include "vm/builder.hh"
#include "vm/interpreter.hh"

namespace {

using namespace aregion::testing;
namespace vm = aregion::vm;

// ---------------------------------------------------------------
// Generator
// ---------------------------------------------------------------

TEST(Generator, SameSeedSameMaskIsDeterministic)
{
    for (uint64_t seed : {1ull, 17ull, 923ull}) {
        RandomProgramGen a(seed, kAllFeatures);
        RandomProgramGen b(seed, kAllFeatures);
        EXPECT_EQ(serializeGenProgram(a.generate()),
                  serializeGenProgram(b.generate()))
            << "seed " << seed;
    }
}

TEST(Generator, FeatureMaskGatesShapes)
{
    // Scalar-only seeds must never spawn threads or render trapping
    // statements; the full mask must produce both somewhere.
    bool any_threads = false;
    bool any_traps = false;
    for (uint64_t seed = 1; seed <= 60; ++seed) {
        RandomProgramGen scalar(seed, kArrays);
        const GenProgram sp = scalar.generate();
        EXPECT_FALSE(usesThreads(sp)) << "seed " << seed;
        EXPECT_FALSE(mayTrap(sp)) << "seed " << seed;

        RandomProgramGen full(seed, kAllFeatures);
        const GenProgram fp = full.generate();
        any_threads = any_threads || usesThreads(fp);
        any_traps = any_traps || mayTrap(fp);
    }
    EXPECT_TRUE(any_threads);
    EXPECT_TRUE(any_traps);
}

TEST(Generator, EveryCanonicalMaskRendersAndRuns)
{
    for (uint32_t mask : canonicalMasks()) {
        RandomProgramGen gen(42, mask);
        const GenProgram gp = gen.generate();
        const vm::Program prog = renderProgram(gp);
        vm::Interpreter interp(prog);
        const vm::InterpResult res = interp.run(1ull << 22);
        EXPECT_TRUE(res.completed || res.trap.has_value())
            << "mask " << maskName(mask);
    }
}

// ---------------------------------------------------------------
// Corpus format
// ---------------------------------------------------------------

TEST(Corpus, SerializeParseRoundTripsExactly)
{
    for (uint64_t seed : {3ull, 77ull, 501ull}) {
        RandomProgramGen gen(seed, kAllFeatures);
        const GenProgram gp = gen.generate();
        const std::string text = serializeGenProgram(gp);

        GenProgram back;
        std::string err;
        ASSERT_TRUE(parseGenProgram(text, back, &err)) << err;
        EXPECT_EQ(serializeGenProgram(back), text);
        // The round-tripped structure renders to the same program.
        EXPECT_EQ(renderedMainSize(back), renderedMainSize(gp));
    }
}

TEST(Corpus, EveryMaskNameParsesBack)
{
    // A replay command and a corpus `features` line carry maskName;
    // both are read with parseMask, mask 0 ("none") included.
    for (uint32_t mask = 0; mask <= kAllFeatures; ++mask) {
        uint32_t back = ~0u;
        EXPECT_TRUE(parseMask(maskName(mask), back)) << maskName(mask);
        EXPECT_EQ(back, mask) << maskName(mask);
    }
    RandomProgramGen gen(5, 0);
    const GenProgram gp = gen.generate();
    const std::string text = serializeGenProgram(gp);
    ASSERT_NE(text.find("features none\n"), std::string::npos);
    GenProgram back;
    std::string err;
    ASSERT_TRUE(parseGenProgram(text, back, &err)) << err;
    EXPECT_EQ(back.features, 0u);
    EXPECT_EQ(serializeGenProgram(back), text);
}

TEST(Corpus, ParseRejectsGarbage)
{
    GenProgram out;
    std::string err;
    EXPECT_FALSE(parseGenProgram("not a corpus entry", out, &err));
    EXPECT_FALSE(err.empty());
    EXPECT_FALSE(parseGenProgram(
        "seed 1\nfeatures 3\nmain {\n  frobnicate 0 0 0 0\n}\n", out,
        &err));
}

// ---------------------------------------------------------------
// Minimizer
// ---------------------------------------------------------------

TEST(Minimizer, ShrinksPlantedFaultToTenInstructions)
{
    // Plant a "divergence": the predicate is any property the
    // harness could flag — here, the rendered program traps with
    // DivideByZero. Starting from a large random program that
    // happens to satisfy it, the minimizer must strip everything
    // incidental and land at a near-minimal reproducer.
    auto divides_by_zero = [](const GenProgram &candidate) {
        const vm::Program prog = renderProgram(candidate);
        vm::Interpreter interp(prog);
        const vm::InterpResult res = interp.run(1ull << 22);
        return res.trap.has_value() &&
            res.trap->kind == vm::TrapKind::DivideByZero;
    };

    // Plant the fault inside a deliberately fat program: two
    // helpers and a main full of incidental arithmetic, loops, and
    // allocation around one unguarded division whose divisor is
    // main's first seed constant — zero.
    using K = GenStmt::K;
    auto st = [](K k, uint32_t a, uint32_t b, uint32_t c,
                 int64_t imm) {
        GenStmt s;
        s.kind = k;
        s.a = a;
        s.b = b;
        s.c = c;
        s.imm = imm;
        return s;
    };
    GenProgram fat;
    fat.seed = 999;
    fat.features = kAllFeatures;
    fat.seedA = 0;
    fat.seedB = 7;
    fat.helpers.push_back({st(K::Binop, 0, 1, 0, 2),
                           st(K::ConstVal, 0, 0, 0, 11),
                           st(K::Binop, 1, 2, 0, 0)});
    fat.helpers.push_back({st(K::FieldTrip, 0, 0, 0, 1),
                           st(K::Binop, 0, 0, 0, 5)});
    for (int i = 0; i < 6; ++i) {
        fat.main.push_back(st(K::ConstVal, 0, 0, 0, 10 + i));
        fat.main.push_back(st(K::Binop, i, i + 1, 0, i % 8));
        fat.main.push_back(st(K::CallHelper, i % 2, i, i + 2, 0));
    }
    GenStmt loop = st(K::Loop, 1, 0, 0, 4);
    loop.body.push_back(st(K::Binop, 1, 2, 0, 0));
    loop.body.push_back(st(K::ArraySafe, 0, 1, 0, 5));
    fat.main.push_back(loop);
    fat.main.push_back(st(K::FieldTrip, 3, 0, 0, 2));
    fat.main.push_back(st(K::DivMaybe, 0, 0, 0, 0));
    fat.main.push_back(st(K::PrintVal, 1, 0, 0, 0));
    fat.main.push_back(st(K::ArraySafe, 2, 4, 0, 6));
    ASSERT_GE(fat.countStmts(), 25u);
    ASSERT_TRUE(divides_by_zero(fat));

    MinimizeStats stats;
    const GenProgram slim =
        minimizeProgram(fat, divides_by_zero, &stats);
    EXPECT_TRUE(divides_by_zero(slim));
    EXPECT_LT(stats.stmtsAfter, stats.stmtsBefore);
    EXPECT_GT(stats.predicateCalls, 0u);
    // The acceptance bar: a planted fault shrinks to a handful of
    // rendered main-method instructions.
    EXPECT_LE(renderedMainSize(slim), 10u)
        << serializeGenProgram(slim);

    // Determinism: minimizing again reproduces the same bytes.
    const GenProgram again =
        minimizeProgram(fat, divides_by_zero, nullptr);
    EXPECT_EQ(serializeGenProgram(again), serializeGenProgram(slim));
}

// ---------------------------------------------------------------
// Differential harness
// ---------------------------------------------------------------

TEST(DiffHarness, CleanSeedsAcrossMasksDoNotDiverge)
{
    for (uint32_t mask : canonicalMasks()) {
        RandomProgramGen gen(7, mask);
        const DiffReport report = runDiff(gen.generate());
        EXPECT_FALSE(report.diverged())
            << "mask " << maskName(mask) << ": " << report.summary();
    }
}

TEST(DiffHarness, FlagsReflectProgramShape)
{
    // The report must classify a trapping program and a threaded
    // program, and still agree everywhere. With `threads` and
    // `multi` on, most seeds spawn workers, so hunt the trapping
    // single-threaded shape with those bits masked off.
    bool saw_trap = false;
    const uint32_t no_threads =
        kAllFeatures & ~(kContention | kMultiContext);
    for (uint64_t seed = 1; seed <= 100 && !saw_trap; ++seed) {
        RandomProgramGen gen(seed, no_threads);
        const DiffReport report = runDiff(gen.generate());
        EXPECT_FALSE(report.diverged()) << report.summary();
        if (report.skipped)
            continue;
        EXPECT_FALSE(report.threaded);
        saw_trap = saw_trap || report.trapped;
    }
    EXPECT_TRUE(saw_trap);

    bool saw_threads = false;
    for (uint64_t seed = 1; seed <= 100 && !saw_threads; ++seed) {
        RandomProgramGen gen(seed, kAllFeatures);
        const DiffReport report = runDiff(gen.generate());
        EXPECT_FALSE(report.diverged()) << report.summary();
        if (report.skipped)
            continue;
        saw_threads = saw_threads || report.threaded;
    }
    EXPECT_TRUE(saw_threads);
}

// ---------------------------------------------------------------
// Trap-attribution parity (the contract the fuzzer enforces)
// ---------------------------------------------------------------

namespace {

/**
 * Build a program whose fault sits inside a hot helper that the
 * inliner folds into main: warm iterations pass benign values, the
 * final one faults. Every executor must attribute the trap to the
 * *helper's* method id and pc even though, post-inlining, the
 * executing function is main.
 */
struct TrapCase
{
    std::string name;
    vm::TrapKind kind;
    vm::Program prog;
    vm::MethodId helper;
};

TrapCase
makeTrapCase(const std::string &name, vm::TrapKind kind)
{
    using vm::Bc;
    vm::ProgramBuilder pb;
    const vm::ClassId box = pb.declareClass("Box", {"f"});
    const vm::ClassId other = pb.declareClass("Other", {});
    const vm::MethodId helper = pb.declareMethod("helper", 1);
    {
        auto mb = pb.define(helper);
        const vm::Reg x = mb.arg(0);
        switch (kind) {
          case vm::TrapKind::NullPointer: {
            // x: a Box ref for warm calls, null for the last.
            mb.ret(mb.getField(x, 0));
            break;
          }
          case vm::TrapKind::ArrayBounds: {
            // x: index into a fresh 4-element array.
            const vm::Reg len = mb.constant(4);
            const vm::Reg arr = mb.newArray(len);
            mb.ret(mb.aload(arr, x));
            break;
          }
          case vm::TrapKind::NegativeArraySize: {
            const vm::Reg arr = mb.newArray(x);
            mb.ret(mb.alength(arr));
            break;
          }
          case vm::TrapKind::DivideByZero: {
            const vm::Reg num = mb.constant(100);
            mb.ret(mb.binop(Bc::Div, num, x));
            break;
          }
          case vm::TrapKind::ClassCast: {
            // x: a Box ref for warm calls, an Other for the last.
            mb.checkCast(x, box);
            mb.ret(mb.constant(1));
            break;
          }
          default:
            ADD_FAILURE() << "unsupported kind";
            mb.ret(x);
            break;
        }
        mb.finish();
    }
    const vm::MethodId mm = pb.declareMethod("main", 0);
    {
        auto mb = pb.define(mm);
        const bool ref_arg = kind == vm::TrapKind::NullPointer ||
            kind == vm::TrapKind::ClassCast;
        const vm::Reg benign = ref_arg
            ? mb.newObject(box)
            : mb.constant(kind == vm::TrapKind::DivideByZero ? 5 : 2);
        // Warm loop: enough calls for the profile to mark the
        // helper hot so the inliner folds it into main.
        const vm::Reg i = mb.constant(0);
        const vm::Reg limit = mb.constant(64);
        const vm::Reg one = mb.constant(1);
        const vm::Label loop = mb.newLabel();
        const vm::Label done = mb.newLabel();
        mb.bind(loop);
        mb.branchCmp(Bc::CmpGe, i, limit, done);
        mb.print(mb.callStatic(helper, {benign}));
        mb.binopTo(Bc::Add, i, i, one);
        mb.jump(loop);
        mb.bind(done);
        int64_t fatal_val = -3;                  // negative array size
        if (kind == vm::TrapKind::ArrayBounds)
            fatal_val = 9;                       // past length 4
        if (kind == vm::TrapKind::DivideByZero)
            fatal_val = 0;
        const vm::Reg fatal = ref_arg
            ? (kind == vm::TrapKind::ClassCast ? mb.newObject(other)
                                               : mb.constant(0))
            : mb.constant(fatal_val);
        mb.print(mb.callStatic(helper, {fatal}));
        mb.retVoid();
        mb.finish();
    }
    pb.setMain(mm);
    return {name, kind, pb.build(), helper};
}

} // namespace

TEST(TrapParity, InlinedHelperKeepsTrapMethodAndPcEverywhere)
{
    const std::vector<std::pair<std::string, vm::TrapKind>> kinds = {
        {"null", vm::TrapKind::NullPointer},
        {"bounds", vm::TrapKind::ArrayBounds},
        {"negsize", vm::TrapKind::NegativeArraySize},
        {"divzero", vm::TrapKind::DivideByZero},
        {"cast", vm::TrapKind::ClassCast},
    };
    for (const auto &[name, kind] : kinds) {
        const TrapCase tc = makeTrapCase(name, kind);

        // Reference semantics: the interpreter blames the helper.
        vm::Interpreter interp(tc.prog);
        const vm::InterpResult res = interp.run(1ull << 22);
        ASSERT_TRUE(res.trap.has_value()) << name;
        EXPECT_EQ(res.trap->kind, kind) << name;
        ASSERT_EQ(res.trap->method, tc.helper)
            << name << ": fault must originate inside the helper "
            << "or this case does not exercise inlined attribution";

        // The harness holds every other executor (evaluator at all
        // prefixes, machine with/without timing, hostile geometry)
        // to the same kind/method/pc — this is the regression test
        // for the evaluator formerly reporting the inlined caller.
        const DiffReport report = runDiff(tc.prog, false);
        EXPECT_TRUE(report.trapped) << name;
        EXPECT_FALSE(report.skipped) << name;
        EXPECT_FALSE(report.diverged())
            << name << ": " << report.summary();
    }
}

} // namespace

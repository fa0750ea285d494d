/**
 * @file
 * A library of sample bytecode programs shared across test suites.
 *
 * Every factory returns a verified single- threaded program with
 * deterministic printed output, so executor-equivalence tests
 * (interpreter vs IR evaluator vs machine simulator, optimized or
 * not) can run over the whole set.
 */

#ifndef AREGION_TESTS_PROGRAMS_HH
#define AREGION_TESTS_PROGRAMS_HH

#include <functional>
#include <string>
#include <vector>

#include "vm/builder.hh"
#include "vm/verifier.hh"

namespace aregion::test {

using namespace aregion::vm;

struct SampleProgram
{
    std::string name;
    Program prog;
};

/** Arithmetic torture: chained ops over a loop, printing checksums. */
inline Program
arithLoopProgram()
{
    ProgramBuilder pb;
    const MethodId mm = pb.declareMethod("main", 0);
    auto mb = pb.define(mm);
    const Reg acc = mb.constant(1);
    const Reg i = mb.constant(1);
    const Reg n = mb.constant(40);
    const Reg one = mb.constant(1);
    const Reg three = mb.constant(3);
    const Reg seven = mb.constant(7);
    const Label loop = mb.newLabel();
    const Label done = mb.newLabel();
    mb.bind(loop);
    mb.branchCmp(Bc::CmpGt, i, n, done);
    mb.binopTo(Bc::Mul, acc, acc, three);
    mb.binopTo(Bc::Add, acc, acc, i);
    mb.binopTo(Bc::Rem, acc, acc, mb.constant(1000003));
    mb.binopTo(Bc::Xor, acc, acc, seven);
    mb.binopTo(Bc::Add, i, i, one);
    mb.jump(loop);
    mb.bind(done);
    mb.print(acc);
    mb.retVoid();
    mb.finish();
    pb.setMain(mm);
    Program prog = pb.build();
    verifyOrDie(prog);
    return prog;
}

/** Recursion: fibonacci via two recursive calls. */
inline Program
fibProgram()
{
    ProgramBuilder pb;
    const MethodId fib = pb.declareMethod("fib", 1);
    {
        auto f = pb.define(fib);
        const Reg two = f.constant(2);
        const Label base = f.newLabel();
        f.branchCmp(Bc::CmpLt, f.arg(0), two, base);
        const Reg one = f.constant(1);
        const Reg a = f.callStatic(fib, {f.sub(f.arg(0), one)});
        const Reg b = f.callStatic(fib, {f.sub(f.arg(0), two)});
        f.ret(f.add(a, b));
        f.bind(base);
        f.ret(f.arg(0));
        f.finish();
    }
    const MethodId mm = pb.declareMethod("main", 0);
    auto mb = pb.define(mm);
    mb.print(mb.callStatic(fib, {mb.constant(15)}));
    mb.retVoid();
    mb.finish();
    pb.setMain(mm);
    Program prog = pb.build();
    verifyOrDie(prog);
    return prog;
}

/**
 * The paper's Figure 2 workload: SuballocatedIntVector.addElement,
 * inlined call pairs, hot path with null/bounds checks, cold path
 * allocating new chunks. Prints a checksum over the vector.
 */
inline Program
addElementProgram(int inserts = 3000, int chunk_size = 256)
{
    ProgramBuilder pb;
    const ClassId vec = pb.declareClass(
        "SuballocatedIntVector", {"chunks", "cached", "chunkIndex", "i"});
    const int f_chunks = pb.fieldIndex(vec, "chunks");
    const int f_cached = pb.fieldIndex(vec, "cached");
    const int f_chunk_index = pb.fieldIndex(vec, "chunkIndex");
    const int f_i = pb.fieldIndex(vec, "i");

    // addElement(this, x): hot path writes into the cached chunk;
    // cold path allocates the next chunk.
    const MethodId add = pb.declareMethod("addElement", 2);
    {
        auto f = pb.define(add);
        const Reg self = f.self();
        const Reg x = f.arg(1);
        const Reg cs = f.constant(chunk_size);
        const Label cold = f.newLabel();
        const Label done = f.newLabel();
        const Reg i = f.getField(self, f_i);
        f.branchCmp(Bc::CmpGe, i, cs, cold);
        // hot: cached[i] = x; ++i
        const Reg cached = f.getField(self, f_cached);
        f.astore(cached, i, x);
        const Reg one = f.constant(1);
        f.putField(self, f_i, f.add(i, one));
        f.jump(done);
        f.bind(cold);
        // cold: append a fresh chunk, reset i, store element at 0.
        const Reg fresh = f.newArray(cs);
        const Reg chunks = f.getField(self, f_chunks);
        const Reg ci = f.getField(self, f_chunk_index);
        const Reg one2 = f.constant(1);
        const Reg ci1 = f.add(ci, one2);
        f.astore(chunks, ci1, fresh);
        f.putField(self, f_chunk_index, ci1);
        f.putField(self, f_cached, fresh);
        const Reg zero = f.constant(0);
        f.astore(fresh, zero, x);
        f.putField(self, f_i, one2);
        f.bind(done);
        f.retVoid();
        f.finish();
    }

    const MethodId mm = pb.declareMethod("main", 0);
    auto mb = pb.define(mm);
    const Reg v = mb.newObject(vec);
    const Reg nchunks = mb.constant(2 + 2 * inserts / chunk_size);
    const Reg chunks = mb.newArray(nchunks);
    mb.putField(v, f_chunks, chunks);
    const Reg first = mb.newArray(mb.constant(chunk_size));
    const Reg zero = mb.constant(0);
    mb.astore(chunks, zero, first);
    mb.putField(v, f_cached, first);

    // The hottest call site calls addElement twice in a row (paper).
    const Reg i = mb.constant(0);
    const Reg n = mb.constant(inserts);
    const Reg one = mb.constant(1);
    const Label loop = mb.newLabel();
    const Label done = mb.newLabel();
    mb.bind(loop);
    mb.branchCmp(Bc::CmpGe, i, n, done);
    mb.callStaticVoid(add, {v, i});
    mb.callStaticVoid(add, {v, mb.add(i, one)});
    mb.binopTo(Bc::Add, i, i, one);
    mb.safepoint();
    mb.jump(loop);
    mb.bind(done);
    mb.print(mb.getField(v, f_i));
    mb.print(mb.getField(v, f_chunk_index));
    // Checksum the cached chunk.
    const Reg cached = mb.getField(v, f_cached);
    const Reg sum = mb.constant(0);
    const Reg j = mb.constant(0);
    const Reg len = mb.getField(v, f_i);
    const Label cloop = mb.newLabel();
    const Label cdone = mb.newLabel();
    mb.bind(cloop);
    mb.branchCmp(Bc::CmpGe, j, len, cdone);
    const Reg e = mb.aload(cached, j);
    mb.binopTo(Bc::Add, sum, sum, e);
    mb.binopTo(Bc::Add, j, j, one);
    mb.jump(cloop);
    mb.bind(cdone);
    mb.print(sum);
    mb.retVoid();
    mb.finish();
    pb.setMain(mm);
    Program prog = pb.build();
    verifyOrDie(prog);
    return prog;
}

/** Virtual dispatch over a class hierarchy with a biased receiver. */
inline Program
dispatchProgram()
{
    ProgramBuilder pb;
    const ClassId shape = pb.declareClass("Shape", {"dim"});
    const int f_dim = pb.fieldIndex(shape, "dim");
    const ClassId square = pb.declareClass("Square", {}, shape);
    const ClassId circle = pb.declareClass("Circle", {}, shape);

    const MethodId area_sq = pb.declareVirtual(square, "area", 1);
    {
        auto f = pb.define(area_sq);
        const Reg d = f.getField(f.self(), f_dim);
        f.ret(f.mul(d, d));
    f.finish();
    }
    const MethodId area_ci = pb.declareVirtual(circle, "area", 1);
    {
        auto f = pb.define(area_ci);
        const Reg d = f.getField(f.self(), f_dim);
        const Reg three = f.constant(3);
        f.ret(f.mul(three, f.mul(d, d)));
        f.finish();
    }

    const MethodId mm = pb.declareMethod("main", 0);
    auto mb = pb.define(mm);
    const int slot = pb.virtualSlot("area");
    const Reg sq = mb.newObject(square);
    const Reg ci = mb.newObject(circle);
    const Reg i = mb.constant(0);
    const Reg n = mb.constant(200);
    const Reg one = mb.constant(1);
    const Reg k31 = mb.constant(31);
    const Reg sum = mb.constant(0);
    const Label loop = mb.newLabel();
    const Label done = mb.newLabel();
    const Label use_ci = mb.newLabel();
    const Label call = mb.newLabel();
    const Reg recv = mb.newReg();
    mb.bind(loop);
    mb.branchCmp(Bc::CmpGe, i, n, done);
    mb.putField(sq, f_dim, i);
    mb.putField(ci, f_dim, i);
    // every 31st iteration uses the circle (cold receiver)
    const Reg rem = mb.binop(Bc::Rem, i, k31);
    const Reg zero = mb.constant(0);
    const Reg is_cold = mb.cmp(Bc::CmpEq, rem, zero);
    mb.branchIf(is_cold, use_ci);
    mb.mov(recv, sq);
    mb.jump(call);
    mb.bind(use_ci);
    mb.mov(recv, ci);
    mb.bind(call);
    const Reg a = mb.callVirtual(slot, {recv});
    mb.binopTo(Bc::Add, sum, sum, a);
    mb.binopTo(Bc::Add, i, i, one);
    mb.jump(loop);
    mb.bind(done);
    mb.print(sum);
    // instanceof checks over both receivers
    mb.print(mb.instanceOf(sq, shape));
    mb.print(mb.instanceOf(ci, square));
    mb.checkCast(sq, shape);
    mb.retVoid();
    mb.finish();
    pb.setMain(mm);
    Program prog = pb.build();
    verifyOrDie(prog);
    return prog;
}

/** Synchronized accumulator: monitor traffic on the hot path. */
inline Program
monitorProgram()
{
    ProgramBuilder pb;
    const ClassId acc = pb.declareClass("Acc", {"total"});
    const int f_total = pb.fieldIndex(acc, "total");
    const MethodId add = pb.declareMethod("add", 2, /*sync=*/true);
    {
        auto f = pb.define(add);
        const Reg t = f.getField(f.self(), f_total);
        f.putField(f.self(), f_total, f.add(t, f.arg(1)));
        f.retVoid();
        f.finish();
    }
    const MethodId mm = pb.declareMethod("main", 0);
    auto mb = pb.define(mm);
    const Reg a = mb.newObject(acc);
    const Reg i = mb.constant(0);
    const Reg n = mb.constant(500);
    const Reg one = mb.constant(1);
    const Label loop = mb.newLabel();
    const Label done = mb.newLabel();
    mb.bind(loop);
    mb.branchCmp(Bc::CmpGe, i, n, done);
    mb.callStaticVoid(add, {a, i});
    mb.binopTo(Bc::Add, i, i, one);
    mb.jump(loop);
    mb.bind(done);
    mb.print(mb.getField(a, f_total));
    mb.retVoid();
    mb.finish();
    pb.setMain(mm);
    Program prog = pb.build();
    verifyOrDie(prog);
    return prog;
}

/** Nested loops over a 2-D structure (array of arrays). */
inline Program
matrixProgram()
{
    ProgramBuilder pb;
    const MethodId mm = pb.declareMethod("main", 0);
    auto mb = pb.define(mm);
    const Reg n = mb.constant(12);
    const Reg rows = mb.newArray(n);
    const Reg one = mb.constant(1);
    const Reg i = mb.constant(0);
    {
        const Label loop = mb.newLabel();
        const Label done = mb.newLabel();
        mb.bind(loop);
        mb.branchCmp(Bc::CmpGe, i, n, done);
        const Reg row = mb.newArray(n);
        mb.astore(rows, i, row);
        mb.binopTo(Bc::Add, i, i, one);
        mb.jump(loop);
        mb.bind(done);
    }
    // fill: rows[i][j] = i*13 + j, then checksum
    const Reg sum = mb.constant(0);
    const Reg k13 = mb.constant(13);
    mb.constTo(i, 0);
    {
        const Label iloop = mb.newLabel();
        const Label idone = mb.newLabel();
        mb.bind(iloop);
        mb.branchCmp(Bc::CmpGe, i, n, idone);
        const Reg row = mb.aload(rows, i);
        const Reg j = mb.constant(0);
        const Label jloop = mb.newLabel();
        const Label jdone = mb.newLabel();
        mb.bind(jloop);
        mb.branchCmp(Bc::CmpGe, j, n, jdone);
        const Reg v = mb.add(mb.mul(i, k13), j);
        mb.astore(row, j, v);
        mb.binopTo(Bc::Add, sum, sum, mb.aload(row, j));
        mb.binopTo(Bc::Add, j, j, one);
        mb.jump(jloop);
        mb.bind(jdone);
        mb.binopTo(Bc::Add, i, i, one);
        mb.jump(iloop);
        mb.bind(idone);
    }
    mb.print(sum);
    mb.retVoid();
    mb.finish();
    pb.setMain(mm);
    Program prog = pb.build();
    verifyOrDie(prog);
    return prog;
}

/**
 * The drifting filter: a loop of @p iterations that takes a rare
 * path on 1 in @p rare_every iterations and prints a checksum. A
 * drift workload profiles it with a large rate (the path is cold)
 * and measures it with a small one (the path turned warm).
 */
inline Program
driftFilterProgram(int iterations, int rare_every)
{
    ProgramBuilder pb;
    const MethodId mm = pb.declareMethod("main", 0);
    auto mb = pb.define(mm);
    const Reg i = mb.constant(0);
    const Reg n = mb.constant(iterations);
    const Reg one = mb.constant(1);
    const Reg k = mb.constant(rare_every);
    const Reg sum = mb.constant(0);
    const Label loop = mb.newLabel();
    const Label rare = mb.newLabel();
    const Label next = mb.newLabel();
    const Label done = mb.newLabel();
    mb.bind(loop);
    mb.branchCmp(Bc::CmpGe, i, n, done);
    const Reg rem = mb.binop(Bc::Rem, i, k);
    const Reg zero = mb.constant(0);
    const Reg hit = mb.cmp(Bc::CmpEq, rem, zero);
    mb.branchIf(hit, rare);
    mb.binopTo(Bc::Add, sum, sum, i);
    mb.jump(next);
    mb.bind(rare);
    mb.binopTo(Bc::Add, sum, sum, one);
    mb.jump(next);
    mb.bind(next);
    mb.binopTo(Bc::Add, i, i, one);
    mb.safepoint();
    mb.jump(loop);
    mb.bind(done);
    mb.print(sum);
    mb.retVoid();
    mb.finish();
    pb.setMain(mm);
    Program prog = pb.build();
    verifyOrDie(prog);
    return prog;
}

/** All sample programs (single-threaded, deterministic). */
inline std::vector<SampleProgram>
allSamplePrograms()
{
    std::vector<SampleProgram> samples;
    samples.push_back({"arith_loop", arithLoopProgram()});
    samples.push_back({"fib", fibProgram()});
    samples.push_back({"add_element", addElementProgram()});
    samples.push_back({"dispatch", dispatchProgram()});
    samples.push_back({"monitor", monitorProgram()});
    samples.push_back({"matrix", matrixProgram()});
    return samples;
}

} // namespace aregion::test

#endif // AREGION_TESTS_PROGRAMS_HH

#include "testing/random_program.hh"

#include <cctype>
#include <optional>

#include "support/logging.hh"
#include "support/whole_number.hh"
#include "vm/builder.hh"
#include "vm/verifier.hh"

namespace aregion::testing {

using namespace aregion::vm;

namespace {

const struct
{
    GenStmt::K kind;
    const char *name;
} kKindNames[] = {
    {GenStmt::K::Binop, "binop"},
    {GenStmt::K::ConstVal, "const"},
    {GenStmt::K::ArraySafe, "array_safe"},
    {GenStmt::K::FieldTrip, "field_trip"},
    {GenStmt::K::Diamond, "diamond"},
    {GenStmt::K::CallHelper, "call_helper"},
    {GenStmt::K::Loop, "loop"},
    {GenStmt::K::PrintVal, "print"},
    {GenStmt::K::VirtualDisp, "virtual"},
    {GenStmt::K::SyncCall, "sync_call"},
    {GenStmt::K::MonitorBlock, "monitor"},
    {GenStmt::K::ObjNew, "obj_new"},
    {GenStmt::K::ObjNull, "obj_null"},
    {GenStmt::K::ObjField, "obj_field"},
    {GenStmt::K::ArrNew, "arr_new"},
    {GenStmt::K::ArrNull, "arr_null"},
    {GenStmt::K::ArrRaw, "arr_raw"},
    {GenStmt::K::DivMaybe, "div_maybe"},
    {GenStmt::K::CastMaybe, "cast_maybe"},
    {GenStmt::K::NewArrayMaybe, "new_array_maybe"},
    {GenStmt::K::VirtualChain, "virtual_chain"},
    {GenStmt::K::VirtualMaybe, "virtual_maybe"},
    {GenStmt::K::ColdDiamond, "cold_diamond"},
    {GenStmt::K::Contention, "contention"},
    {GenStmt::K::MultiContext, "multi_context"},
};

const struct
{
    uint32_t bit;
    const char *name;
} kFeatureNames[] = {
    {kArrays, "arrays"},         {kObjects, "objects"},
    {kTraps, "traps"},           {kVirtualChains, "virtuals"},
    {kMonitors, "monitors"},     {kContention, "contention"},
    {kAbortShapes, "aborts"},    {kMultiContext, "multi"},
};

} // namespace

const char *
stmtKindName(GenStmt::K kind)
{
    for (const auto &e : kKindNames) {
        if (e.kind == kind)
            return e.name;
    }
    return "?";
}

bool
stmtKindFromName(const std::string &name, GenStmt::K &out)
{
    for (const auto &e : kKindNames) {
        if (name == e.name) {
            out = e.kind;
            return true;
        }
    }
    return false;
}

std::vector<uint32_t>
canonicalMasks()
{
    return {
        kLegacyScalar,
        kLegacyObjects,
        kArrays | kTraps,
        kArrays | kObjects | kMonitors | kTraps,
        kObjects | kVirtualChains,
        kObjects | kVirtualChains | kTraps,
        kArrays | kObjects | kMonitors | kAbortShapes,
        kObjects | kMonitors | kContention,
        kObjects | kMonitors | kMultiContext,
        kAllFeatures & ~(kContention | kMultiContext),
        kAllFeatures,
    };
}

bool
parseMask(const std::string &text, uint32_t &mask_out)
{
    if (text == "all") {
        mask_out = kAllFeatures;
        return true;
    }
    if (text == "legacy") {
        mask_out = kLegacyObjects;
        return true;
    }
    if (text == "none") {
        mask_out = 0;
        return true;
    }
    if (!text.empty() && (isdigit(text[0]) != 0)) {
        const std::optional<uint64_t> n = wholeNumber(text);
        if (!n || *n > kAllFeatures)
            return false;
        mask_out = static_cast<uint32_t>(*n);
        return true;
    }
    uint32_t mask = 0;
    size_t pos = 0;
    while (pos < text.size()) {
        size_t next = text.find('+', pos);
        if (next == std::string::npos)
            next = text.size();
        const std::string word = text.substr(pos, next - pos);
        bool found = false;
        for (const auto &f : kFeatureNames) {
            if (word == f.name) {
                mask |= f.bit;
                found = true;
            }
        }
        if (!found)
            return false;
        pos = next + 1;
    }
    mask_out = mask;
    return mask != 0;
}

std::string
maskName(uint32_t mask)
{
    std::string name;
    for (const auto &f : kFeatureNames) {
        if (mask & f.bit) {
            if (!name.empty())
                name += "+";
            name += f.name;
        }
    }
    return name.empty() ? "none" : name;
}

size_t
GenProgram::countStmts() const
{
    size_t n = 0;
    auto walk = [&](const std::vector<GenStmt> &stmts,
                    auto &&self) -> void {
        for (const GenStmt &s : stmts) {
            ++n;
            self(s.body, self);
        }
    };
    for (const auto &h : helpers)
        walk(h, walk);
    walk(main, walk);
    return n;
}

// --- generation --------------------------------------------------

GenStmt
RandomProgramGen::makeStmt(GenStmt::K kind)
{
    GenStmt s;
    s.kind = kind;
    s.a = static_cast<uint32_t>(rng.below(1u << 16));
    s.b = static_cast<uint32_t>(rng.below(1u << 16));
    s.c = static_cast<uint32_t>(rng.below(1u << 16));
    switch (kind) {
      case GenStmt::K::Binop: s.imm = rng.below(8); break;
      case GenStmt::K::ConstVal: s.imm = rng.range(-100, 100); break;
      case GenStmt::K::ArraySafe: s.imm = rng.range(2, 9); break;
      case GenStmt::K::FieldTrip: s.imm = rng.below(4); break;
      case GenStmt::K::Loop:
        s.imm = (features & kAbortShapes) ? rng.range(6, 24)
                                          : rng.range(1, 12);
        break;
      case GenStmt::K::VirtualDisp: s.imm = rng.below(2); break;
      case GenStmt::K::ObjNew: s.imm = rng.below(3); break;
      case GenStmt::K::ObjField: s.imm = rng.below(4); break;
      case GenStmt::K::ArrNew: s.imm = rng.range(1, 8); break;
      case GenStmt::K::DivMaybe: s.imm = rng.below(2); break;
      case GenStmt::K::CastMaybe: s.imm = rng.below(4); break;
      case GenStmt::K::VirtualChain: s.imm = rng.below(9); break;
      case GenStmt::K::ColdDiamond: s.imm = rng.range(0, 23); break;
      case GenStmt::K::Contention:
        s.imm = rng.range(3, 17);
        s.a = static_cast<uint32_t>(rng.below(6));
        break;
      case GenStmt::K::MultiContext:
        s.imm = rng.range(3, 12);               // bumps per worker
        s.a = static_cast<uint32_t>(rng.below(3));  // 2..4 workers
        break;
      default: break;
    }
    return s;
}

void
RandomProgramGen::emitStatements(std::vector<GenStmt> &out,
                                 int num_helpers, int count,
                                 int depth, bool top_level)
{
    using K = GenStmt::K;
    std::vector<K> menu{K::Binop, K::ConstVal, K::Diamond,
                        K::PrintVal};
    if (num_helpers > 0)
        menu.push_back(K::CallHelper);
    if (depth > 0) {
        menu.push_back(K::Loop);
        if (features & kAbortShapes)
            menu.push_back(K::Loop);
    }
    if (features & kArrays)
        menu.push_back(K::ArraySafe);
    if (features & kObjects) {
        menu.push_back(K::FieldTrip);
        menu.push_back(K::VirtualDisp);
        menu.push_back(K::ObjNew);
        menu.push_back(K::ObjField);
    }
    if (features & kMonitors) {
        menu.push_back(K::SyncCall);
        menu.push_back(K::MonitorBlock);
    }
    if (features & kVirtualChains) {
        menu.push_back(K::ObjNew);
        menu.push_back(K::VirtualChain);
        menu.push_back(K::VirtualMaybe);
    }
    if (features & kTraps) {
        menu.push_back(K::DivMaybe);
        menu.push_back(K::ArrNew);
        menu.push_back(K::ArrRaw);
        menu.push_back(K::NewArrayMaybe);
        menu.push_back(K::CastMaybe);
        menu.push_back(K::ObjField);
        menu.push_back(K::ObjNull);
        menu.push_back(K::ArrNull);
    }
    if (features & kAbortShapes)
        menu.push_back(K::ColdDiamond);

    for (int i = 0; i < count; ++i) {
        // At most one contention handshake per program, main only.
        if (top_level && (features & kContention) && !contentionUsed &&
            rng.chance(0.35)) {
            contentionUsed = true;
            out.push_back(makeStmt(K::Contention));
            continue;
        }
        // Same for the multi-worker pile-up (the spawned-thread
        // budget is layout::MAX_THREADS-bounded, so one per program).
        if (top_level && (features & kMultiContext) &&
            !multiContextUsed && rng.chance(0.35)) {
            multiContextUsed = true;
            out.push_back(makeStmt(K::MultiContext));
            continue;
        }
        GenStmt s = makeStmt(menu[rng.below(menu.size())]);
        if (s.kind == K::Loop) {
            emitStatements(s.body, num_helpers,
                           static_cast<int>(rng.range(1, 3)),
                           depth - 1, false);
        }
        out.push_back(std::move(s));
    }
}

GenProgram
RandomProgramGen::generate()
{
    GenProgram gp;
    gp.seed = seed;
    gp.features = features;
    const int num_helpers = static_cast<int>(rng.range(1, 3));
    for (int h = 0; h < num_helpers; ++h) {
        gp.helpers.emplace_back();
        // A helper may call previously generated helpers only.
        emitStatements(gp.helpers.back(), h, 4, 1, false);
    }
    gp.seedA = rng.range(-50, 50);
    gp.seedB = rng.range(1, 100);
    emitStatements(gp.main, num_helpers, 10, 2, true);
    return gp;
}

// --- rendering ---------------------------------------------------

namespace {

/** Program scaffolding shared by every rendered program. */
struct Scaffold
{
    ClassId box, boxA, boxB, boxC;
    int slotGet = -1;
    int slotChain = -1;
    MethodId syncBump = NO_METHOD;
    MethodId worker = NO_METHOD;
    MethodId mworker = NO_METHOD;
    std::vector<MethodId> helpers;
};

/** Typed value pools; object/array pools hold refs (or null). */
struct Pools
{
    std::vector<Reg> vals;
    std::vector<Reg> objs;
    std::vector<Reg> arrs;
    Reg loopVar = NO_REG;
    /** Helpers callable from this body: [0, callableHelpers). A
     *  helper may only call lower-indexed helpers, so rendering can
     *  never build a recursive (nonterminating) call cycle. */
    size_t callableHelpers = 0;
};

class Renderer
{
  public:
    explicit Renderer(const GenProgram &gp) : gp(gp) {}

    Program
    render()
    {
        buildScaffold();
        for (size_t h = 0; h < gp.helpers.size(); ++h) {
            auto mb = pb.define(sc.helpers[h]);
            Pools pools;
            pools.vals = {mb.arg(0), mb.arg(1)};
            pools.callableHelpers = h;
            renderStmts(mb, gp.helpers[h], pools);
            mb.ret(pickVal(mb, pools, 0));
            mb.finish();
        }
        const MethodId mm = pb.declareMethod("main", 0);
        {
            auto mb = pb.define(mm);
            Pools pools;
            pools.vals.push_back(mb.constant(gp.seedA));
            pools.vals.push_back(mb.constant(gp.seedB));
            pools.callableHelpers = sc.helpers.size();
            renderStmts(mb, gp.main, pools);
            for (Reg v : pools.vals)
                mb.print(v);
            mb.retVoid();
            mb.finish();
        }
        pb.setMain(mm);
        Program prog = pb.build();
        verifyOrDie(prog);
        return prog;
    }

  private:
    void
    buildScaffold()
    {
        sc.box = pb.declareClass("Box", {"f0", "f1", "f2", "f3"});
        sc.boxA = pb.declareClass("BoxA", {}, sc.box);
        sc.boxB = pb.declareClass("BoxB", {}, sc.box);
        sc.boxC = pb.declareClass("BoxC", {}, sc.boxA);
        {
            const MethodId m = pb.declareVirtual(sc.boxA, "get", 1);
            auto f = pb.define(m);
            f.ret(f.getField(f.self(), 0));
            f.finish();
        }
        {
            const MethodId m = pb.declareVirtual(sc.boxB, "get", 1);
            auto f = pb.define(m);
            const Reg v = f.getField(f.self(), 1);
            f.ret(f.mul(v, f.constant(3)));
            f.finish();
        }
        {
            const MethodId m = pb.declareVirtual(sc.boxC, "get", 1);
            auto f = pb.define(m);
            f.ret(f.add(f.getField(f.self(), 0),
                        f.getField(f.self(), 3)));
            f.finish();
        }
        sc.slotGet = pb.virtualSlot("get");
        {
            const MethodId m = pb.declareVirtual(sc.boxA, "chain", 2);
            auto f = pb.define(m);
            const Reg x = f.callVirtual(sc.slotGet, {f.self()});
            const Reg y = f.callVirtual(sc.slotGet, {f.arg(1)});
            f.ret(f.add(x, y));
            f.finish();
        }
        {
            const MethodId m = pb.declareVirtual(sc.boxB, "chain", 2);
            auto f = pb.define(m);
            const Reg x = f.callVirtual(sc.slotGet, {f.self()});
            const Reg y = f.callVirtual(sc.slotGet, {f.arg(1)});
            f.ret(f.sub(f.mul(x, f.constant(2)), y));
            f.finish();
        }
        {
            const MethodId m = pb.declareVirtual(sc.boxC, "chain", 2);
            auto f = pb.define(m);
            const Reg y = f.callVirtual(sc.slotGet, {f.arg(1)});
            f.ret(f.sub(y, f.getField(f.self(), 2)));
            f.finish();
        }
        sc.slotChain = pb.virtualSlot("chain");
        sc.syncBump = pb.declareMethod("bump", 2, /*sync=*/true);
        {
            auto f = pb.define(sc.syncBump);
            const Reg t = f.getField(f.self(), 2);
            f.putField(f.self(), 2, f.add(t, f.arg(1)));
            f.ret(f.getField(f.self(), 2));
            f.finish();
        }
        sc.worker = pb.declareMethod("worker", 2);
        {
            // worker(obj, n): n synchronized bumps of +1, then raise
            // the done flag (f3) under the monitor. The worker never
            // prints and never allocates, so the printed output and
            // the final heap image stay interleaving-independent.
            auto f = pb.define(sc.worker);
            const Reg obj = f.arg(0);
            const Reg n = f.arg(1);
            const Reg one = f.constant(1);
            const Reg i = f.constant(0);
            const Label loop = f.newLabel();
            const Label done = f.newLabel();
            f.bind(loop);
            f.branchCmp(Bc::CmpGe, i, n, done);
            f.callStaticVoid(sc.syncBump, {obj, one});
            f.binopTo(Bc::Add, i, i, one);
            f.jump(loop);
            f.bind(done);
            f.monitorEnter(obj);
            f.putField(obj, 3, one);
            f.monitorExit(obj);
            f.retVoid();
            f.finish();
        }
        sc.mworker = pb.declareMethod("mworker", 2);
        {
            // mworker(obj, n): like worker, but the done flag (f3)
            // counts finished workers instead of being a boolean, so
            // several mworkers can share one object and main can wait
            // for all of them.
            auto f = pb.define(sc.mworker);
            const Reg obj = f.arg(0);
            const Reg n = f.arg(1);
            const Reg one = f.constant(1);
            const Reg i = f.constant(0);
            const Label loop = f.newLabel();
            const Label done = f.newLabel();
            f.bind(loop);
            f.branchCmp(Bc::CmpGe, i, n, done);
            f.callStaticVoid(sc.syncBump, {obj, one});
            f.binopTo(Bc::Add, i, i, one);
            f.jump(loop);
            f.bind(done);
            f.monitorEnter(obj);
            const Reg d = f.getField(obj, 3);
            f.putField(obj, 3, f.add(d, one));
            f.monitorExit(obj);
            f.retVoid();
            f.finish();
        }
        for (size_t h = 0; h < gp.helpers.size(); ++h) {
            sc.helpers.push_back(pb.declareMethod(
                "helper" + std::to_string(h), 2));
        }
    }

    Reg
    pickVal(MethodBuilder &mb, Pools &pools, uint32_t sel)
    {
        if (pools.vals.empty())
            pools.vals.push_back(mb.constant(1));
        return pools.vals[sel % pools.vals.size()];
    }

    Reg
    pickObj(MethodBuilder &mb, Pools &pools, uint32_t sel)
    {
        if (pools.objs.empty())
            pools.objs.push_back(mb.newObject(sc.boxA));
        return pools.objs[sel % pools.objs.size()];
    }

    Reg
    pickArr(MethodBuilder &mb, Pools &pools, uint32_t sel)
    {
        if (pools.arrs.empty())
            pools.arrs.push_back(mb.newArray(mb.constant(4)));
        return pools.arrs[sel % pools.arrs.size()];
    }

    ClassId
    classSel(int64_t sel) const
    {
        switch (sel % 3) {
          case 0: return sc.boxA;
          case 1: return sc.boxB;
          default: return sc.boxC;
        }
    }

    /** idx <- nonneg(v) % len, always in [0, len) for len > 0. */
    Reg
    boundedIndex(MethodBuilder &mb, Reg v, Reg len)
    {
        const Reg r = mb.binop(Bc::Rem, v, len);
        const Reg r2 = mb.add(r, len);
        return mb.binop(Bc::Rem, r2, len);
    }

    void renderStmts(MethodBuilder &mb,
                     const std::vector<GenStmt> &stmts, Pools &pools);
    void renderStmt(MethodBuilder &mb, const GenStmt &s,
                    Pools &pools);

    const GenProgram &gp;
    ProgramBuilder pb;
    Scaffold sc;
};

void
Renderer::renderStmts(MethodBuilder &mb,
                      const std::vector<GenStmt> &stmts, Pools &pools)
{
    for (const GenStmt &s : stmts)
        renderStmt(mb, s, pools);
}

void
Renderer::renderStmt(MethodBuilder &mb, const GenStmt &s,
                     Pools &pools)
{
    using K = GenStmt::K;
    switch (s.kind) {
      case K::Binop: {
        static const Bc ops[] = {Bc::Add, Bc::Sub, Bc::Mul, Bc::And,
                                 Bc::Or,  Bc::Xor, Bc::CmpLt,
                                 Bc::CmpEq};
        pools.vals.push_back(mb.binop(ops[s.imm % 8],
                                      pickVal(mb, pools, s.a),
                                      pickVal(mb, pools, s.b)));
        break;
      }
      case K::ConstVal:
        pools.vals.push_back(mb.constant(s.imm));
        break;
      case K::ArraySafe: {
        const Reg len = mb.constant(s.imm);
        const Reg arr = mb.newArray(len);
        const Reg idx =
            boundedIndex(mb, pickVal(mb, pools, s.a), len);
        mb.astore(arr, idx, pickVal(mb, pools, s.b));
        pools.vals.push_back(mb.aload(arr, idx));
        pools.vals.push_back(mb.alength(arr));
        break;
      }
      case K::FieldTrip: {
        const Reg obj = mb.newObject(sc.box);
        const int field = static_cast<int>(s.imm % 4);
        mb.putField(obj, field, pickVal(mb, pools, s.a));
        pools.vals.push_back(mb.getField(obj, field));
        break;
      }
      case K::Diamond: {
        const Label els = mb.newLabel();
        const Label done = mb.newLabel();
        const Reg out = mb.newReg();
        mb.branchCmp(Bc::CmpLt, pickVal(mb, pools, s.a),
                     pickVal(mb, pools, s.b), els);
        mb.mov(out, pickVal(mb, pools, s.c));
        mb.jump(done);
        mb.bind(els);
        mb.mov(out, pickVal(mb, pools, s.a ^ 1));
        mb.bind(done);
        pools.vals.push_back(out);
        break;
      }
      case K::CallHelper: {
        if (pools.callableHelpers == 0) {
            pools.vals.push_back(mb.constant(7));
        } else {
            const MethodId callee =
                sc.helpers[s.a % pools.callableHelpers];
            pools.vals.push_back(
                mb.callStatic(callee, {pickVal(mb, pools, s.b),
                                       pickVal(mb, pools, s.c)}));
        }
        break;
      }
      case K::Loop: {
        const Reg i = mb.constant(0);
        const Reg n = mb.constant(s.imm);
        const Reg one = mb.constant(1);
        const Reg acc = mb.constant(0);
        const Label loop = mb.newLabel();
        const Label done = mb.newLabel();
        mb.bind(loop);
        mb.branchCmp(Bc::CmpGe, i, n, done);
        Pools inner;
        inner.vals = {pickVal(mb, pools, s.a), i, acc};
        inner.objs = pools.objs;
        inner.arrs = pools.arrs;
        inner.loopVar = i;
        inner.callableHelpers = pools.callableHelpers;
        renderStmts(mb, s.body, inner);
        mb.binopTo(Bc::Add, acc, acc, inner.vals.back());
        mb.binopTo(Bc::Add, i, i, one);
        mb.jump(loop);
        mb.bind(done);
        pools.vals.push_back(acc);
        break;
      }
      case K::PrintVal:
        mb.print(pickVal(mb, pools, s.a));
        break;
      case K::VirtualDisp: {
        const ClassId which = (s.imm % 2) ? sc.boxB : sc.boxA;
        const Reg obj = mb.newObject(which);
        mb.putField(obj, 0, pickVal(mb, pools, s.a));
        mb.putField(obj, 1, pickVal(mb, pools, s.b));
        pools.vals.push_back(mb.callVirtual(sc.slotGet, {obj}));
        pools.vals.push_back(mb.instanceOf(obj, sc.boxA));
        break;
      }
      case K::SyncCall: {
        const Reg obj = mb.newObject(sc.box);
        pools.vals.push_back(mb.callStatic(
            sc.syncBump, {obj, pickVal(mb, pools, s.a)}));
        pools.vals.push_back(mb.callStatic(
            sc.syncBump, {obj, pickVal(mb, pools, s.b)}));
        break;
      }
      case K::MonitorBlock: {
        const Reg obj = mb.newObject(sc.box);
        mb.monitorEnter(obj);
        mb.putField(obj, 3, pickVal(mb, pools, s.a));
        pools.vals.push_back(mb.getField(obj, 3));
        mb.monitorExit(obj);
        break;
      }
      case K::ObjNew: {
        const Reg obj = mb.newObject(classSel(s.imm));
        mb.putField(obj, 0, pickVal(mb, pools, s.a));
        mb.putField(obj, 1, pickVal(mb, pools, s.b));
        pools.objs.push_back(obj);
        break;
      }
      case K::ObjNull:
        pools.objs.push_back(mb.constant(0));
        break;
      case K::ObjField: {
        const Reg obj = pickObj(mb, pools, s.a);
        const int field = static_cast<int>(s.imm % 4);
        mb.putField(obj, field, pickVal(mb, pools, s.b));
        pools.vals.push_back(mb.getField(obj, field));
        break;
      }
      case K::ArrNew:
        pools.arrs.push_back(mb.newArray(mb.constant(s.imm)));
        break;
      case K::ArrNull:
        pools.arrs.push_back(mb.constant(0));
        break;
      case K::ArrRaw: {
        const Reg arr = pickArr(mb, pools, s.a);
        Reg idx;
        if (s.c & 1) {
            idx = boundedIndex(mb, pickVal(mb, pools, s.b),
                               mb.alength(arr));
        } else {
            idx = pickVal(mb, pools, s.b);
        }
        mb.astore(arr, idx, pickVal(mb, pools, s.c >> 1));
        pools.vals.push_back(mb.aload(arr, idx));
        break;
      }
      case K::DivMaybe:
        pools.vals.push_back(
            mb.binop((s.imm & 1) ? Bc::Rem : Bc::Div,
                     pickVal(mb, pools, s.a),
                     pickVal(mb, pools, s.b)));
        break;
      case K::CastMaybe: {
        const Reg obj = pickObj(mb, pools, s.a);
        const ClassId target =
            (s.imm % 4 == 3) ? sc.box : classSel(s.imm);
        mb.checkCast(obj, target);
        pools.vals.push_back(mb.getField(obj, 0));
        break;
      }
      case K::NewArrayMaybe: {
        // Bound the magnitude so a huge length cannot blow the heap
        // (an assert, not a trap); negatives still reach NewArray.
        const Reg len = mb.binop(Bc::Rem, pickVal(mb, pools, s.a),
                                 mb.constant(17));
        const Reg arr = mb.newArray(len);
        pools.vals.push_back(mb.alength(arr));
        pools.arrs.push_back(arr);
        break;
      }
      case K::VirtualChain: {
        const Reg o1 = mb.newObject(classSel(s.imm % 3));
        const Reg o2 = mb.newObject(classSel((s.imm / 3) % 3));
        mb.putField(o1, 0, pickVal(mb, pools, s.a));
        mb.putField(o2, 1, pickVal(mb, pools, s.b));
        mb.putField(o2, 3, pickVal(mb, pools, s.c));
        pools.vals.push_back(
            mb.callVirtual(sc.slotChain, {o1, o2}));
        pools.objs.push_back(o1);
        break;
      }
      case K::VirtualMaybe: {
        const Reg obj = pickObj(mb, pools, s.a);
        pools.vals.push_back(mb.callVirtual(sc.slotGet, {obj}));
        break;
      }
      case K::ColdDiamond: {
        // Hot path nearly always; the cold path fires on one loop
        // iteration, so region formation converts the cold edge to
        // an assert that aborts exactly once per loop at runtime.
        const Reg obj = pickObj(mb, pools, s.c);
        const Label cold = mb.newLabel();
        const Label done = mb.newLabel();
        const Reg out = mb.newReg();
        const Reg k = mb.constant(s.imm);
        const Reg lhs = (pools.loopVar != NO_REG)
                            ? pools.loopVar
                            : pickVal(mb, pools, s.a);
        mb.branchCmp(Bc::CmpEq, lhs, k, cold);
        mb.mov(out, pickVal(mb, pools, s.b));
        mb.jump(done);
        mb.bind(cold);
        mb.putField(obj, 3, pickVal(mb, pools, s.b ^ 3));
        mb.getFieldTo(out, obj, 3);
        mb.bind(done);
        pools.vals.push_back(out);
        break;
      }
      case K::Contention: {
        // Deterministic handshake: the shared counter's final value
        // is initial + bumps regardless of interleaving, and main
        // only reads it after the worker raises the done flag.
        const Reg obj = mb.newObject(sc.box);
        const Reg one = mb.constant(1);
        mb.putField(obj, 2, pickVal(mb, pools, s.b));
        mb.putField(obj, 3, mb.constant(0));
        mb.spawn(sc.worker, {obj, mb.constant(s.imm)});
        for (uint32_t i = 0; i < s.a % 6; ++i)
            mb.callStaticVoid(sc.syncBump, {obj, one});
        const Label spin = mb.newLabel();
        const Reg flag = mb.newReg();
        mb.bind(spin);
        mb.monitorEnter(obj);
        mb.getFieldTo(flag, obj, 3);
        mb.monitorExit(obj);
        mb.branchCmp(Bc::CmpEq, flag, mb.constant(0), spin);
        pools.vals.push_back(mb.getField(obj, 2));
        break;
      }
      case K::MultiContext: {
        // 2-4 workers all bumping one shared counter: the smallest
        // program shape on which genuine cross-context conflict
        // aborts occur under SLE. Final value is initial + k*imm on
        // every interleaving; main waits until the done count (f3)
        // reaches k before reading.
        const int k = 2 + static_cast<int>(s.a % 3);
        const Reg obj = mb.newObject(sc.box);
        mb.putField(obj, 2, pickVal(mb, pools, s.b));
        mb.putField(obj, 3, mb.constant(0));
        for (int w = 0; w < k; ++w)
            mb.spawn(sc.mworker, {obj, mb.constant(s.imm)});
        const Reg want = mb.constant(k);
        const Label spin = mb.newLabel();
        const Label ready = mb.newLabel();
        const Reg flag = mb.newReg();
        mb.bind(spin);
        mb.safepoint();
        mb.monitorEnter(obj);
        mb.getFieldTo(flag, obj, 3);
        mb.monitorExit(obj);
        mb.branchCmp(Bc::CmpGe, flag, want, ready);
        mb.jump(spin);
        mb.bind(ready);
        pools.vals.push_back(mb.getField(obj, 2));
        break;
      }
    }
}

template <typename Fn>
void
walkStmts(const std::vector<GenStmt> &stmts, Fn &&fn)
{
    for (const GenStmt &s : stmts) {
        fn(s);
        walkStmts(s.body, fn);
    }
}

template <typename Fn>
void
walkProgram(const GenProgram &gp, Fn &&fn)
{
    for (const auto &h : gp.helpers)
        walkStmts(h, fn);
    walkStmts(gp.main, fn);
}

} // namespace

Program
renderProgram(const GenProgram &gp)
{
    Renderer renderer(gp);
    return renderer.render();
}

size_t
renderedMainSize(const GenProgram &gp)
{
    const Program prog = renderProgram(gp);
    return prog.method(prog.mainMethod).code.size();
}

bool
usesThreads(const GenProgram &gp)
{
    bool found = false;
    walkProgram(gp, [&](const GenStmt &s) {
        found |= s.kind == GenStmt::K::Contention ||
            s.kind == GenStmt::K::MultiContext;
    });
    return found;
}

bool
mayTrap(const GenProgram &gp)
{
    bool found = false;
    walkProgram(gp, [&](const GenStmt &s) {
        switch (s.kind) {
          case GenStmt::K::ObjNull:
          case GenStmt::K::ArrNull:
          case GenStmt::K::ArrRaw:
          case GenStmt::K::DivMaybe:
          case GenStmt::K::CastMaybe:
          case GenStmt::K::NewArrayMaybe:
            found = true;
            break;
          default:
            break;
        }
    });
    return found;
}

} // namespace aregion::testing

#include "runtime/service/code_cache.hh"

#include <string>

#include "support/fnv.hh"

namespace aregion::runtime::service {

namespace {

struct Fnv
{
    uint64_t state = kFnvOffsetBasis;

    void byte(uint8_t b) { state = fnvByte(state, b); }
    void u64(uint64_t v) { state = fnvWord(state, v); }

    void i64(int64_t v) { u64(static_cast<uint64_t>(v)); }

    void f64(double v)
    {
        // Bit-pattern hash: configs are set from literals, so the
        // pattern is deterministic across hosts.
        uint64_t bits;
        static_assert(sizeof(bits) == sizeof(v));
        __builtin_memcpy(&bits, &v, sizeof(bits));
        u64(bits);
    }

    void str(const std::string &s)
    {
        u64(s.size());
        for (char c : s)
            byte(static_cast<uint8_t>(c));
    }
};

} // namespace

uint64_t
hashProgram(const vm::Program &prog)
{
    Fnv h;
    h.u64(static_cast<uint64_t>(prog.numClasses()));
    for (int c = 0; c < prog.numClasses(); ++c) {
        const vm::ClassInfo &ci = prog.cls(c);
        h.str(ci.name);
        h.i64(ci.superId);
        h.u64(ci.fields.size());
        for (const std::string &f : ci.fields)
            h.str(f);
        h.u64(ci.vtable.size());
        for (vm::MethodId m : ci.vtable)
            h.i64(m);
    }
    h.u64(static_cast<uint64_t>(prog.numMethods()));
    for (int m = 0; m < prog.numMethods(); ++m) {
        const vm::MethodInfo &mi = prog.method(m);
        h.str(mi.name);
        h.i64(mi.classId);
        h.i64(mi.numArgs);
        h.i64(mi.numRegs);
        h.byte(mi.isSynchronized ? 1 : 0);
        h.u64(mi.code.size());
        for (const vm::BcInstr &bc : mi.code) {
            h.byte(static_cast<uint8_t>(bc.op));
            h.u64(bc.a);
            h.u64(bc.b);
            h.u64(bc.c);
            h.i64(bc.imm);
            h.u64(bc.args.size());
            for (vm::Reg r : bc.args)
                h.u64(r);
        }
    }
    h.i64(prog.mainMethod);
    return h.state;
}

uint64_t
hashProfile(const vm::Program &prog, const vm::Profile &profile)
{
    Fnv h;
    for (int m = 0; m < prog.numMethods(); ++m) {
        const vm::MethodProfile &mp = profile.forMethod(m);
        h.u64(mp.invocations);
        h.u64(mp.execCount.size());
        for (uint64_t c : mp.execCount)
            h.u64(c);
        h.u64(mp.branchTaken.size());
        for (const auto &[pc, taken] : mp.branchTaken) {
            h.i64(pc);
            h.u64(taken);
        }
        h.u64(mp.callSites.size());
        for (const auto &[pc, site] : mp.callSites) {
            h.i64(pc);
            h.u64(site.total);
            h.u64(site.receivers.size());
            for (const auto &[cls, count] : site.receivers) {
                h.i64(cls);
                h.u64(count);
            }
        }
    }
    return h.state;
}

uint64_t
hashCompilerConfig(const core::CompilerConfig &config)
{
    Fnv h;
    h.str(config.name);
    h.byte(config.atomicRegions ? 1 : 0);
    h.byte(config.sle ? 1 : 0);
    h.byte(config.postdomCheckElim ? 1 : 0);
    h.byte(config.elideSafepointsInRegions ? 1 : 0);
    h.f64(config.inlineMultiplier);
    h.byte(config.forceMonomorphic ? 1 : 0);
    h.i64(config.unrollBodyLimit);
    h.i64(config.maxScalarIters);

    const core::RegionConfig &r = config.region;
    h.f64(r.loopPathThreshold);
    h.f64(r.targetSize);
    h.i64(r.minRegionInstrs);
    h.u64(r.warmOverrides.size());
    for (const auto &[mid, pc] : r.warmOverrides) {
        h.i64(mid);
        h.i64(pc);
    }
    return h.state;
}

uint64_t
cacheKey(const vm::Program &prog, const vm::Profile &profile,
         const core::CompilerConfig &config)
{
    Fnv h;
    h.u64(hashProgram(prog));
    h.u64(hashProfile(prog, profile));
    h.u64(hashCompilerConfig(config));
    return h.state;
}

} // namespace aregion::runtime::service

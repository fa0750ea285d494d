#include "runtime/service/code_cache.hh"

#include <string>

#include "ir/printer.hh"
#include "opt/pass.hh"
#include "support/telemetry.hh"
#include "support/telemetry_keys.hh"

namespace aregion::runtime::service {

namespace {

constexpr uint64_t kFnvOffset = 0xcbf29ce484222325ULL;
constexpr uint64_t kFnvPrime = 0x100000001b3ULL;

struct Fnv
{
    uint64_t state = kFnvOffset;

    void byte(uint8_t b)
    {
        state ^= b;
        state *= kFnvPrime;
    }

    void u64(uint64_t v)
    {
        for (int i = 0; i < 8; ++i)
            byte(static_cast<uint8_t>(v >> (8 * i)));
    }

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

    const core::RegionConfig &r = config.region;
    h.byte(r.enabled ? 1 : 0);
    h.f64(r.coldBias);
    h.f64(r.loopPathThreshold);
    h.f64(r.targetSize);
    h.f64(r.hotBlockCutoff);
    h.i64(r.maxRegionBlocks);
    h.i64(r.minRegionInstrs);
    h.i64(r.maxUnrollFactor);
    h.u64(r.warmOverrides.size());
    for (const auto &[mid, pc] : r.warmOverrides) {
        h.i64(mid);
        h.i64(pc);
    }
    h.u64(r.blacklistMethods.size());
    for (int mid : r.blacklistMethods)
        h.i64(mid);

    const opt::OptContext &o = config.opt;
    h.i64(o.inlineCalleeLimit);
    h.i64(o.inlineGrowthLimit);
    h.f64(o.devirtBias);
    h.byte(o.refusePolymorphicCallees ? 1 : 0);
    h.byte(o.assumeMonomorphic ? 1 : 0);
    h.i64(o.partialInlineLimit);
    h.i64(o.unrollBodyLimit);
    h.f64(o.unrollMinTrip);
    h.i64(o.maxScalarIters);
    return h.state;
}

uint64_t
passFingerprint()
{
    Fnv h;
    h.i64(kPassSchemaVersion);
    for (const std::string &name : opt::pipelinePassNames())
        h.str(name);
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
    h.u64(passFingerprint());
    return h.state;
}

size_t
estimateCodeBytes(const core::Compiled &compiled)
{
    // Capacity model (docs/SERVICE.md): per-instruction footprint of
    // the retained HIR plus per-function CFG overhead plus a fixed
    // per-entry cost for the cache bookkeeping and stats block. The
    // per-instruction cost is fitted to the heap the compiles of the
    // DaCapo analogs keep: an 80-byte ir::Instr, its operand vector,
    // and the block vectors' spare capacity.
    constexpr size_t kBytesPerInstr = 128;
    constexpr size_t kBytesPerFunc = 256;
    constexpr size_t kBytesPerEntry = 512;
    return kBytesPerEntry +
           compiled.mod.funcs.size() * kBytesPerFunc +
           static_cast<size_t>(compiled.stats.totalInstrs) *
               kBytesPerInstr;
}

uint64_t
codeChecksum(const core::Compiled &compiled)
{
    Fnv h;
    for (const auto &[mid, func] : compiled.mod.funcs) {
        h.i64(mid);
        h.str(ir::toString(func));
    }
    return h.state;
}

std::shared_ptr<const CachedCode>
CodeCache::lookup(uint64_t key)
{
    std::lock_guard<std::mutex> lock(mu);
    auto it = table.find(key);
    if (it == table.end()) {
        missCount++;
        return nullptr;
    }
    hitCount++;
    lruOrder.splice(lruOrder.begin(), lruOrder, it->second.lru);
    return it->second.code;
}

std::shared_ptr<const CachedCode>
CodeCache::peek(uint64_t key) const
{
    std::lock_guard<std::mutex> lock(mu);
    auto it = table.find(key);
    return it == table.end() ? nullptr : it->second.code;
}

size_t
CodeCache::insert(const std::shared_ptr<const CachedCode> &code)
{
    std::lock_guard<std::mutex> lock(mu);
    auto it = table.find(code->key);
    if (it != table.end()) {
        // Replacement (recompile path): swap the payload in place.
        bytesUsed -= it->second.code->sizeBytes;
        it->second.code = code;
        bytesUsed += code->sizeBytes;
        lruOrder.splice(lruOrder.begin(), lruOrder, it->second.lru);
    } else {
        lruOrder.push_front(code->key);
        table[code->key] = Entry{code, lruOrder.begin()};
        bytesUsed += code->sizeBytes;
    }
    const uint64_t before = evictionCount;
    evictOverBudgetLocked(code->key);
    return static_cast<size_t>(evictionCount - before);
}

void
CodeCache::evictOverBudgetLocked(uint64_t keep_key)
{
    while (bytesUsed > budget && table.size() > 1) {
        const uint64_t victim = lruOrder.back();
        if (victim == keep_key)
            break;  // never evict the entry being served right now
        auto it = table.find(victim);
        bytesUsed -= it->second.code->sizeBytes;
        lruOrder.pop_back();
        table.erase(it);
        evictionCount++;
    }
}

void
CodeCache::invalidate(uint64_t key)
{
    std::lock_guard<std::mutex> lock(mu);
    auto it = table.find(key);
    if (it == table.end())
        return;
    bytesUsed -= it->second.code->sizeBytes;
    lruOrder.erase(it->second.lru);
    table.erase(it);
}

size_t
CodeCache::entries() const
{
    std::lock_guard<std::mutex> lock(mu);
    return table.size();
}

size_t
CodeCache::bytes() const
{
    std::lock_guard<std::mutex> lock(mu);
    return bytesUsed;
}

uint64_t
CodeCache::hits() const
{
    std::lock_guard<std::mutex> lock(mu);
    return hitCount;
}

uint64_t
CodeCache::misses() const
{
    std::lock_guard<std::mutex> lock(mu);
    return missCount;
}

uint64_t
CodeCache::evictions() const
{
    std::lock_guard<std::mutex> lock(mu);
    return evictionCount;
}

void
CodeCache::publishTelemetry() const
{
    namespace keys = telemetry::keys;
    auto &reg = telemetry::Registry::global();
    std::lock_guard<std::mutex> lock(mu);
    // Counters are cumulative per process; publish deltas since the
    // last publish so repeated calls never double-count.
    auto delta = [&](const char *key, uint64_t total,
                     uint64_t &published) {
        reg.add(key, total - published);
        published = total;
    };
    delta(keys::kServiceCacheHits, hitCount, publishedHits);
    delta(keys::kServiceCacheMisses, missCount, publishedMisses);
    delta(keys::kServiceCacheEvictions, evictionCount,
          publishedEvictions);
    reg.set(keys::kServiceCacheBytes,
            static_cast<double>(bytesUsed));
    reg.set(keys::kServiceCacheEntries,
            static_cast<double>(table.size()));
}

} // namespace aregion::runtime::service
